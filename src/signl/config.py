"""Plain key = value experiment configuration with a fixed key schema."""

from __future__ import annotations

import io
import math

from .augment import AugmentSpec
from .encoder import check_pyramid
from .errors import ConfigError
from .graphbuild import half_width

# key -> (type, default).  Booleans are written true/false.
SCHEMA = {
    "data.dir": (str, "data"),
    "data.manifest": (str, ""),
    "data.f": (int, 64),
    "data.t": (int, 64),
    "data.n_train": (int, 200),
    "data.n_dev": (int, 50),
    "data.n_eval": (int, 100),
    "data.n_attack_types": (int, 3),
    "data.artifact_strength": (float, 1.0),
    "graph.n": (int, 8),
    "graph.k": (int, 3),
    "graph.d": (int, 32),
    "graph.layers": (int, 5),
    "graph.heads": (int, 4),
    "train.epochs": (int, 50),
    "train.batch_size": (int, 96),
    "train.lr": (float, 1e-3),
    "train.seed": (int, 0),
    "train.label_fraction": (float, 1.0),
    "train.temperature": (float, 0.5),
    "train.freeze_encoders": (bool, False),
    "train.view_mode": (str, "both"),
    "train.skip_pretrain": (bool, False),
    "train.patience": (int, 10),
    "aug.ed": (bool, False),
    "aug.gn": (bool, False),
    "aug.fm": (bool, False),
    "aug.ed_prob": (float, 0.5),
    "aug.gn_sigma": (float, 0.1),
    "aug.fm_prob": (float, 0.5),
    "paths.checkpoint": (str, ""),
}

# view mode -> the views a classifier encodes, in classifier-input order
VIEW_MODES = {"both": ("temporal", "spatial"),
              "temporal_only": ("temporal",),
              "spatial_only": ("spatial",)}


def _coerce(key, raw):
    typ, _ = SCHEMA[key]
    raw = raw.strip()
    if typ is str and any(ch in raw for ch in "#\n\r"):  # dump could not write it back
        raise ConfigError(f"{key}: a value cannot hold '#' or a line break, got {raw!r}")
    if typ is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        value = typ(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    # NaN slips past every single comparison in validate, and inf past the one-sided ones
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    return value


def defaults() -> dict:
    return {k: v for k, (_, v) in SCHEMA.items()}


def parse_line(line, cfg, where=""):
    """One config-file line: text from "#" on is a comment."""
    _assign(line.split("#", 1)[0], cfg, where)


def _assign(line, cfg, where):
    """Set one key from ``key = value`` text; blank text sets nothing."""
    line = line.strip()
    if not line:
        return
    if "=" not in line:
        raise ConfigError(f"{where}: expected key = value, got {line!r}")
    key, raw = (part.strip() for part in line.split("=", 1))
    if key not in SCHEMA:
        raise ConfigError(f"{where}: unknown key {key!r}")
    cfg[key] = _coerce(key, raw)


def load(path=None, overrides=()) -> dict:
    """Config file plus repeatable key=value overrides (overrides win)."""
    cfg = defaults()
    if path is not None:
        for lineno, line in enumerate(_read_lines(path), 1):
            parse_line(line, cfg, where=f"{path}:{lineno}")
    for item in overrides:  # an override has no comment: "#" is refused as a value
        _assign(item, cfg, where=f"override {item!r}")
    validate(cfg)
    return cfg


def _read_lines(path):
    """The lines of a UTF-8 config file, split as text mode splits them; a byte
    that is not UTF-8 raises ConfigError naming its line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8", errors="surrogatepass")
    except UnicodeDecodeError as exc:  # the bad byte is >= 0x80, never a line break
        lineno = len(raw[:exc.start + 1].splitlines())
        raise ConfigError(f"{path}:{lineno}: not UTF-8 text "
                          f"(byte 0x{raw[exc.start]:02x}: {exc.reason})") from None
    return io.StringIO(text, newline=None)


def validate(cfg):
    if cfg["train.epochs"] < 1 or cfg["train.batch_size"] < 1:
        raise ConfigError("epochs and batch size must be >= 1")
    if cfg["train.lr"] <= 0:
        raise ConfigError("learning rate must be positive")
    if not 0 < cfg["train.label_fraction"] <= 1:
        raise ConfigError("label fraction must be in (0, 1]")
    if cfg["train.view_mode"] not in VIEW_MODES:
        raise ConfigError(f"train.view_mode must be one of {tuple(VIEW_MODES)}")
    if cfg["train.temperature"] <= 0:
        raise ConfigError("temperature must be positive")
    if cfg["train.patience"] < 1:
        raise ConfigError("train.patience must be >= 1")
    if not 1 <= cfg["graph.k"] <= cfg["graph.n"] - 1:
        raise ConfigError(f"graph.k must be in [1, graph.n - 1 = {cfg['graph.n'] - 1}]")
    for key in ("graph.layers", "graph.d", "graph.heads", "data.f", "data.t"):
        if cfg[key] < 1:
            raise ConfigError(f"{key} must be >= 1")
    patch_dims(cfg)
    AugmentSpec.from_config(cfg).validate()


def patch_dims(cfg):
    """Flattened patch length of each view, once cfg's clip, patch and pyramid sizes
    are checked to make a model."""
    f, t, n = cfg["data.f"], cfg["data.t"], cfg["graph.n"]
    t_seg = half_width(t)
    if t_seg % n or f % n:
        raise ConfigError(
            f"patch count {n} must divide half-width {t_seg} and freq bins {f}")
    check_pyramid(cfg["graph.d"], cfg["graph.layers"])
    return {"temporal": f * (t_seg // n), "spatial": (f // n) * t_seg}


def dump(cfg, path):
    # a command-line value that is not UTF-8 reaches Python as lone surrogates:
    # surrogatepass writes them, and _read_lines reads them back whole
    with open(path, "w", encoding="utf-8", errors="surrogatepass") as fh:
        for key in SCHEMA:
            value = cfg[key]
            if isinstance(value, bool):
                value = "true" if value else "false"
            fh.write(f"{key} = {value}\n")
