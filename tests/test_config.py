"""Config parsing: schema, coercion, precedence, validation, dump round trip."""

import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signl import config
from signl.errors import ConfigError


def _finite(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


# the format strips surrounding whitespace and cuts values at "#"
_VALUE_TEXT = st.text(alphabet=sorted(set(string.printable) - set(string.whitespace) - {"#"}),
                      max_size=16)
_ANY = {bool: st.booleans(), int: st.integers(-10**9, 10**9), float: _finite(),
        str: _VALUE_TEXT}
_CONSTRAINED = {
    "train.epochs": st.integers(1, 10**6),
    "train.batch_size": st.integers(1, 10**6),
    "train.patience": st.integers(1, 10**6),
    "train.lr": _finite(min_value=0, exclude_min=True),
    "train.temperature": _finite(min_value=0, exclude_min=True),
    "train.label_fraction": _finite(min_value=0, max_value=1, exclude_min=True),
    "train.view_mode": st.sampled_from(list(config.VIEW_MODES)),
    "graph.layers": st.integers(1, 10**6),
    "aug.ed_prob": _finite(min_value=0, max_value=1),
    "aug.fm_prob": _finite(min_value=0, max_value=1),
    "aug.gn_sigma": _finite(min_value=0),
}


@st.composite
def _valid_configs(draw):
    """Every key drawn from its type, within the ranges validate() accepts."""
    cfg = {key: draw(_CONSTRAINED.get(key, _ANY[typ]))
           for key, (typ, _) in config.SCHEMA.items()}
    n = cfg["graph.n"] = draw(st.integers(2, 10**3))
    cfg["graph.k"] = draw(st.integers(1, n - 1))
    # n patches tile the frequency bins and each clip half (odd T pads a frame)
    cfg["data.f"] = n * draw(st.integers(1, 10**6))
    cfg["data.t"] = 2 * n * draw(st.integers(1, 10**6)) - draw(st.integers(0, 1))
    # every layer halves an even width or keeps a width of 1
    twos = draw(st.integers(0, 40))
    odd = 1 if twos < cfg["graph.layers"] else 2 * draw(st.integers(0, 10**6)) + 1
    cfg["graph.d"] = 2**twos * odd
    cfg["graph.heads"] = draw(st.integers(1, 10**9))
    config.validate(cfg)
    return cfg


class TestDefaults:
    def test_every_key_present(self):
        cfg = config.defaults()
        assert set(cfg) == set(config.SCHEMA)

    def test_default_types_match_schema(self):
        cfg = config.defaults()
        for key, (typ, _) in config.SCHEMA.items():
            assert isinstance(cfg[key], typ), key

    def test_known_defaults(self):
        cfg = config.defaults()
        assert cfg["train.batch_size"] == 96
        assert cfg["train.patience"] == 10
        assert cfg["train.temperature"] == 0.5
        assert cfg["aug.gn_sigma"] == 0.1
        assert cfg["train.freeze_encoders"] is False


class TestParseLine:
    def test_comment_and_blank_ignored(self):
        cfg = config.defaults()
        before = dict(cfg)
        config.parse_line("# a comment", cfg)
        config.parse_line("   ", cfg)
        assert cfg == before

    def test_inline_comment_stripped(self):
        cfg = config.defaults()
        config.parse_line("train.epochs = 7  # short run", cfg)
        assert cfg["train.epochs"] == 7

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config.parse_line("train.momentum = 0.9", config.defaults())

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            config.parse_line("train.epochs 7", config.defaults())

    @pytest.mark.parametrize("raw,expected", [
        ("true", True), ("1", True), ("yes", True),
        ("false", False), ("0", False), ("no", False),
        ("TRUE", True), ("No", False),
    ])
    def test_bool_coercion(self, raw, expected):
        cfg = config.defaults()
        config.parse_line(f"aug.ed = {raw}", cfg)
        assert cfg["aug.ed"] is expected

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError, match="boolean"):
            config.parse_line("aug.ed = maybe", config.defaults())

    def test_bad_int_rejected(self):
        with pytest.raises(ConfigError):
            config.parse_line("train.epochs = 2.5", config.defaults())

    def test_float_accepts_scientific(self):
        cfg = config.defaults()
        config.parse_line("train.lr = 5e-6", cfg)
        assert cfg["train.lr"] == 5e-6

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", [k for k, (typ, _) in config.SCHEMA.items() if typ is float])
    def test_non_finite_float_rejected(self, key, raw):
        with pytest.raises(ConfigError, match=f"{key}: expected a finite number"):
            config.load(None, overrides=(f"{key} = {raw}",))


class TestLoad:
    def test_file_then_override_precedence(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("train.epochs = 3\ntrain.lr = 0.01\n")
        cfg = config.load(p, overrides=("train.lr = 0.5",))
        assert cfg["train.epochs"] == 3
        assert cfg["train.lr"] == 0.5

    def test_error_names_file_and_line(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("train.epochs = 1\nbogus.key = 2\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
            config.load(p)

    def test_no_file_gives_defaults(self):
        assert config.load(None) == config.defaults()

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_non_utf8_byte_names_file_and_line(self, tmp_path, newline):
        p = tmp_path / "bad.cfg"
        p.write_bytes(newline.join([b"train.epochs = 1", b"# comment", b"data.dir = caf\xe9", b""]))
        with pytest.raises(ConfigError, match=r"bad\.cfg:3: not UTF-8 text \(byte 0xe9"):
            config.load(p)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_utf8_lines_split_as_text_mode(self, tmp_path, newline):
        p = tmp_path / "a.cfg"
        p.write_bytes(newline.join(["data.dir = café".encode(), b"train.epochs = 3", b""]))
        cfg = config.load(p)
        assert (cfg["data.dir"], cfg["train.epochs"]) == ("café", 3)


class TestValidate:
    @pytest.mark.parametrize("line", [
        "train.epochs = 0",
        "train.batch_size = 0",
        "train.lr = 0",
        "train.lr = -1",
        "train.label_fraction = 0",
        "train.label_fraction = 1.5",
        "train.view_mode = sideways",
        "train.temperature = 0",
        "train.patience = 0",
        "train.patience = -1",
        "graph.k = 0",
        "graph.k = 8",    # graph.n = 8: a node would be its own neighbour
        "graph.k = 9",
        "graph.layers = 0",
        "graph.d = 0",
        "graph.d = 30",   # 30 -> 15: the second of 5 layers cannot halve it
        "graph.heads = 0",
        "graph.heads = -3",
        "graph.n = 6",    # 6 patches do not tile 64 frequency bins
        "data.f = 0",
        "data.f = 60",    # 8 patches do not tile 60 bins
        "data.t = 0",
        "data.t = 40",    # 8 patches do not tile a half of 20 frames
        "aug.ed_prob = -0.1",
        "aug.ed_prob = 1.5",
        "aug.fm_prob = -0.5",
        "aug.fm_prob = 2",
        "aug.gn_sigma = -0.1",
        "aug.gn_sigma = nan",
        "aug.gn_sigma = inf",
    ])
    def test_invalid_values_rejected(self, line):
        with pytest.raises(ConfigError):
            config.load(None, overrides=(line,))

    def test_k_checked_against_n(self):
        with pytest.raises(ConfigError, match="graph.k"):
            config.load(None, overrides=("graph.n = 3",))  # default graph.k = 3
        cfg = config.load(None, overrides=("graph.n = 4",))
        assert cfg["graph.k"] == 3

    @pytest.mark.parametrize("line", [
        "graph.k = 1", "graph.k = 7", "graph.layers = 1", "train.patience = 1",
        "aug.ed_prob = 0", "aug.ed_prob = 1", "aug.fm_prob = 0", "aug.fm_prob = 1",
        "aug.gn_sigma = 0",
    ])
    def test_boundary_values_accepted(self, line):
        config.load(None, overrides=(line,))

    @pytest.mark.parametrize("lines", [
        ("data.t = 63",),                     # an odd T pads a frame: halves of 32
        ("graph.d = 48", "graph.layers = 4"),  # 48 -> 24 -> 12 -> 6 -> 3
        ("graph.d = 1", "graph.layers = 1000000"),
    ])
    def test_model_shapes_accepted(self, lines):
        config.load(None, overrides=lines)

    def test_view_modes_accepted(self):
        for mode in config.VIEW_MODES:
            cfg = config.load(None, overrides=(f"train.view_mode = {mode}",))
            assert cfg["train.view_mode"] == mode


class TestDump:
    def test_round_trip(self, tmp_path):
        cfg = config.load(None, overrides=(
            "train.lr = 5e-6", "aug.ed = true", "data.dir = /tmp/x"))
        p = tmp_path / "out.cfg"
        config.dump(cfg, p)
        assert config.load(p) == cfg

    @settings(max_examples=100, deadline=None)
    @given(_valid_configs())
    def test_dump_load_identity(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.cfg"
            config.dump(cfg, path)
            back = config.load(path)
        assert back == cfg
        assert all(type(back[k]) is type(v) for k, v in cfg.items())


_STR_KEYS = [key for key, (typ, _) in config.SCHEMA.items() if typ is str]


class TestOverrideText:
    @settings(max_examples=300, deadline=None)
    @given(key=st.sampled_from(_STR_KEYS),
           text=st.text(st.one_of(st.characters(), st.sampled_from("#\n\r\t =")), max_size=16))
    @example(key="data.dir", text="corpus#2")
    @example(key="data.manifest", text="m.jsonl\ndata.dir = elsewhere")
    def test_refused_or_kept_whole_and_dumped_back(self, key, text):
        """An override value is refused, naming its key, or kept as given and
        read back unchanged from the resolved config that dump writes."""
        try:
            cfg = config.load(None, overrides=(f"{key} = {text}",))
        except ConfigError as exc:
            assert key in str(exc)
            assert any(ch in text.strip() for ch in "#\n\r") or key == "train.view_mode"
            return
        assert cfg[key] == text.strip()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.cfg"
            config.dump(cfg, path)
            assert config.load(path) == cfg
