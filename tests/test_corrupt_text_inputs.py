"""Seeded, bounded mutation of the text inputs: the manifest, the prediction
CSV and the run config.

Each case cuts a valid file short at one of its offsets, flips a byte, or
replaces one token with a mangled one (empty, a word, a sign, a non-finite or
huge number, a separator, a non-ASCII or non-UTF-8 character). Every case
must either load to the values its own text states, read here by a separate
reference, or raise the module's error naming the path and the line. The
CLI must turn each case into a documented exit code (0, 1 for a validation
error, 2 for an I/O error) with at most one line on stderr and no traceback.
"""

import math
import re

import numpy as np
import pytest

from temporalkit.cli import main
from temporalkit.config import DATA_ROOT_ENV, SCHEMA, ConfigError, RunConfig, build_config
from temporalkit.evaluate import read_predictions
from temporalkit.synth import read_manifest

CASES_PER_KIND = 40
MANGLES = ["", "x", "-1", "0", "+7", "nan", "inf", "-inf", "1e999", "9" * 40, "0x1f", "1.5",
           "1_0", " ", "\t", ",", "=", "#", "\r", "é", "１", b"\xff", b"\xc3"]
TOKEN = re.compile(rb"[^\t,=\n#]+")


def _cases(data: bytes, seed: int):
    """(label, mutated bytes): a cut at every offset, then seeded byte flips
    and seeded token mangles."""
    rng = np.random.default_rng(seed)
    for size in range(len(data)):
        yield f"cut at {size}", data[:size]
    for offset in rng.choice(len(data), size=CASES_PER_KIND, replace=False):
        mutated = bytearray(data)
        mutated[offset] ^= int(rng.integers(1, 256))
        yield f"flip at {offset}", bytes(mutated)
    tokens = [m.span() for m in TOKEN.finditer(data)]
    for k in range(CASES_PER_KIND):
        start, stop = tokens[int(rng.integers(len(tokens)))]
        mangle = MANGLES[k % len(MANGLES)]
        mangle = mangle if isinstance(mangle, bytes) else mangle.encode()
        yield f"token {data[start:stop]!r} -> {mangle!r}", data[:start] + mangle + data[stop:]


def _int(tok: str) -> int:
    """Reference number tokens: ASCII decimal digits, and for floats a sign,
    a point and an exponent (or inf/nan, which the readers then refuse)."""
    if not re.fullmatch(r"[0-9]+", tok):
        raise ValueError(tok)
    return int(tok)


def _float(tok: str) -> float:
    if not re.fullmatch(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?", tok) \
            and tok.lstrip("+-").lower() not in ("inf", "infinity", "nan"):
        raise ValueError(tok)
    return float(tok)


def _lines(data: bytes):
    """Reference reading: (line number, stripped text); None if not UTF-8."""
    try:
        return [(n, line.strip()) for n, line in enumerate(data.decode().split("\n"), 1)]
    except UnicodeDecodeError:
        return None


def _reference_manifest(data: bytes):
    rows = []
    for _, line in _lines(data) or [(0, None)]:
        if line is None:
            return None
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            return None
        try:
            count = _int(parts[1])
            labels = tuple(_int(tok) for tok in parts[2].split(",") if tok != "")
        except ValueError:
            return None
        if count < 1:
            return None
        rows.append((parts[0], count, labels))
    return rows or None


def _reference_predictions(data: bytes):
    ids, rows = [], []
    for _, line in _lines(data) or [(0, None)]:
        if line is None:
            return None
        if not line:
            continue
        parts = line.split(",")
        try:
            row = [_float(tok) for tok in parts[1:]]
        except ValueError:
            return None
        if (not row or (rows and len(row) != len(rows[0])) or parts[0] in ids
                or not all(0.0 <= p <= 1.0 for p in row)):  # NaN fails the range test too
            return None
        ids.append(parts[0])
        rows.append(row)
    return (tuple(ids), rows) if rows else None


def _reference_config(data: bytes):
    values = {}
    for _, line in _lines(data) or [(0, None)]:
        if line is None:
            return None
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, text = line.partition("=")
        key, text = key.strip(), text.strip()
        if not eq or key not in SCHEMA:
            return None
        try:
            if SCHEMA[key] == "int":
                values[key] = _int(text)
            elif SCHEMA[key] == "float":
                values[key] = _float(text)
                if not math.isfinite(values[key]):
                    return None
            elif SCHEMA[key] == "bool":
                low = text.lower()
                if low not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
                    return None
                values[key] = low in ("1", "true", "yes", "on")
            elif SCHEMA[key] == "tuple[int, ...]":
                values[key] = tuple(_int(tok.strip()) for tok in text.split(",") if tok.strip() != "")
            else:
                values[key] = text
        except ValueError:
            return None
    try:
        return RunConfig(**values)
    except ConfigError:
        return None


def _check(path, data, load, reference, error, cli, capsys):
    """Load one mutated file and run the CLI on it; 'loaded' or 'failed'."""
    capsys.readouterr()
    want = reference(data)
    try:
        got = load(path)
    except error as exc:
        assert want is None, f"rejected a file the reference reads: {exc}"
        where = re.match(r"(.*?):(\d+(?:,\d+)*)?:? ", str(exc))
        assert where and where.group(1) == str(path), str(exc)
        lines = data.count(b"\n") + 1
        assert all(1 <= int(n) <= lines for n in (where.group(2) or "1").split(",")), str(exc)
        outcome = "failed"
    else:
        assert want is not None and got == want
        outcome = "loaded"
    code = main(cli)
    err = capsys.readouterr().err
    assert code in (0, 1, 2) and (code == 0) == (err == "")
    assert "Traceback" not in err and err.count("\n") <= 1
    return outcome


def _run(tmp_path, capsys, data, suffix, seed, load, reference, error, cli):
    seen = set()
    for case, (label, mutated) in enumerate(_cases(data, seed)):
        # a fresh file per case: truncating and rewriting one file can force a
        # flush per write on some filesystems
        path = tmp_path / f"mutated{case}{suffix}"
        path.write_bytes(mutated)
        try:
            seen.add(_check(path, mutated, load, reference, error, cli(path), capsys))
        except AssertionError as exc:
            raise AssertionError(f"{label}: {exc}") from None
    assert seen == {"loaded", "failed"}  # both outcomes occur, so the cases reach past the first line


MANIFEST = (b"# id\tframes\tlabels\n"
            b"a.xvid\t16\t0,2\n"
            b"b.xvid\t24\t1\n"
            b"\n"
            b"c.xvid\t16\t\n"
            b"d.xvid\t40\t3,4,5\n")
PREDICTIONS = (b"a.xvid,0.125,0.5,0.25,0.75,0,1\n"
               b"b.xvid,0.875,0.0625,0.5,0.5,0.25,0.125\n"
               b"c.xvid,0.3,0.2,0.1,0.9,0.8,0.7\n"
               b"d.xvid,1,0,0.5,0.25,0.125,0.0625\n")


def test_mutated_manifests_load_as_stated_or_fail_by_line(tmp_path, capsys):
    predictions = tmp_path / "valid.csv"
    predictions.write_bytes(PREDICTIONS)
    _run(tmp_path, capsys, MANIFEST, ".tsv", 51,
         load=read_manifest, reference=_reference_manifest, error=ValueError,
         cli=lambda path: ["map", "--predictions", str(predictions), "--manifest", str(path)])


def test_mutated_predictions_load_as_stated_or_fail_by_line(tmp_path, capsys):
    manifest = tmp_path / "valid.tsv"
    manifest.write_bytes(MANIFEST)

    def load(path):
        preds = read_predictions(path)
        return preds.ids, preds.probs.tolist()

    _run(tmp_path, capsys, PREDICTIONS, ".csv", 52,
         load=load, reference=_reference_predictions, error=ValueError,
         cli=lambda path: ["map", "--predictions", str(path), "--manifest", str(manifest)])


def test_mutated_configs_load_as_stated_or_fail_by_line(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(DATA_ROOT_ENV, raising=False)
    # valid, but naming a manifest that does not exist: `eval` then stops at an I/O error
    config = (f"# run settings\n"
              f"temporal_mode = tin\n"
              f"groups = 2\n"
              f"lr = 0.01   # inline comment\n"
              f"scales = 32,36,40\n"
              f"crop = 32\n"
              f"flip = true\n"
              f"data_root = {tmp_path}\n"
              f"train_manifest = {tmp_path / 'missing.tsv'}\n").encode()
    _run(tmp_path, capsys, config, ".cfg", 53,
         load=build_config, reference=_reference_config, error=ConfigError,
         cli=lambda path: ["eval", "--config", str(path),
                           "--checkpoint", str(tmp_path / "missing.xtck")])


@pytest.mark.parametrize("text,line", [("lr = 0.1\ncrop = 64\n", "2"),
                                       ("temporal_mode = tin\nloss_scale = -1\nlr = 0\n", "2,3"),
                                       ("lr = nan\n", "1")])
def test_config_validation_error_names_the_lines(tmp_path, text, line):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:{line}: "):
        build_config(path)


# Tokens int() and float() take but that are no plain ASCII decimal: an
# underscore, a fullwidth digit, an underscore inside a float.
LOOSE = ["1_6", "\uff11", "1_0e-3"]


@pytest.mark.parametrize("token", LOOSE)
@pytest.mark.parametrize("field", ["count", "label"])
def test_manifest_refuses_loose_number_tokens(tmp_path, token, field):
    path = tmp_path / "loose.tsv"
    row = f"a.xvid\t{token}\t0" if field == "count" else f"a.xvid\t16\t0,{token}"
    path.write_text(f"b.xvid\t16\t1\n{row}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: .*{re.escape(token)}"):
        read_manifest(path)


@pytest.mark.parametrize("token", LOOSE)
def test_predictions_refuse_loose_number_tokens(tmp_path, token):
    path = tmp_path / "loose.csv"
    path.write_text(f"a,0.5,0.25\nb,0.5,{token}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: {re.escape(repr(token))}"):
        read_predictions(path)


@pytest.mark.parametrize("token", LOOSE)
@pytest.mark.parametrize("key", ["seed", "lr", "scales"])
def test_config_refuses_loose_number_tokens(tmp_path, token, key):
    path = tmp_path / "loose.cfg"
    value = f"32,{token}" if key == "scales" else token
    path.write_text(f"crop = 32\n{key} = {value}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:2: .*{re.escape(repr(token))}"):
        build_config(path)
