"""Golden round-trip digests: every byte the CLI writes stays what it was.

Each config runs `simulate`, then `recognize` three ways (`--fuse`,
`--fuse --series-out`, temporal-only `--lenient`), then `evaluate` on each
prediction file and `validate` on both streams, through `cli.main` inside a
temporary directory with relative paths. Two more `validate` calls read a
stream that is not UTF-8 and one whose first line is not a header. The
sha256 of every file written, and of each call's exit code and stdout (and
its stderr, when it writes any), must equal `golden_digests.json`.

After a change that is meant to alter outputs, regenerate the file with
`PYTHONPATH=src python tests/test_golden.py` and say why in the change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from psrkit import cli, fileio

GOLDEN = Path(__file__).with_name("golden_digests.json")


def _doc(seed, n_videos, temporal, **extra):
    return {
        "schema": fileio.SIM_CONFIG_SCHEMA,
        "version": fileio.VERSION,
        "procedure": "toy-motorcycle",
        "n_videos": n_videos,
        "seed": seed,
        "step_gap": 120,
        "occlusion": {"p_occlude": 0.15, "p_reveal": 0.02},
        "asd": {"confidence": 0.9},
        "temporal": temporal,
        "thresholds": {"asd": 0.5, "fused": 0.4},
        **extra,
    }


CONFIGS = {
    "readme": _doc(7, 3, {"hit_prob": 0.7, "fp_rate": 0.001}),
    "dense": _doc(11, 1, {"hit_prob": 0.7, "fp_rate": 0.5, "fp_low": 0.005, "fp_high": 0.05}),
    "errors": _doc(5, 3, {"hit_prob": 0.9, "fp_rate": 0.002}, errors={"p_incorrect": 0.3}),
}

RECOGNIZE = {  # prediction file stem -> its recognize flags
    "fused": ["--streams", "sim/asd_stream.jsonl", "sim/temporal_stream.jsonl",
              "--threshold", "0.4", "--fuse"],
    "fused_series": ["--streams", "sim/asd_stream.jsonl", "sim/temporal_stream.jsonl",
                     "--threshold", "0.4", "--fuse", "--series-out", "fused_series.csv"],
    "temporal": ["--streams", "sim/temporal_stream.jsonl", "--threshold", "0.4", "--lenient"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


INPUTS = ("config.json", "not_utf8.jsonl", "headless.jsonl")  # written here, not by the CLI


def round_trip_digests(directory: Path, doc: dict) -> dict[str, str]:
    """The digest of every file and every call's (exit code, stdout, stderr), by name."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "config.json").write_text(json.dumps(doc), encoding="utf-8")
    calls = {"simulate": ["simulate", "--config", "config.json", "--out", "sim"]}
    for stem, flags in RECOGNIZE.items():
        calls[f"recognize {stem}"] = ["recognize", *flags, "--procedure", "toy-motorcycle",
                                      "--out", f"{stem}.jsonl"]
    for stem in RECOGNIZE:
        calls[f"evaluate {stem}"] = ["evaluate", "--labels", "sim/gt_labels.jsonl",
                                     "--predictions", f"{stem}.jsonl",
                                     "--out", f"{stem}_report.json"]
    validate = ["validate", "--procedure", "toy-motorcycle", "--streams"]
    calls["validate"] = [*validate, "sim/asd_stream.jsonl", "sim/temporal_stream.jsonl"]
    calls["validate not_utf8"] = [*validate, "not_utf8.jsonl"]
    calls["validate headless"] = [*validate, "headless.jsonl"]
    digests = {}
    previous = os.getcwd()
    os.chdir(directory)
    try:
        for name, argv in calls.items():
            if name == "validate not_utf8":  # the temporal stream with a bad byte on line 3
                lines = Path("sim/temporal_stream.jsonl").read_bytes().split(b"\n")
                lines[2] = lines[2].replace(b"video_id", b"video\xffid")
                Path("not_utf8.jsonl").write_bytes(b"\n".join(lines))
            elif name == "validate headless":  # the state stream without its header
                Path("headless.jsonl").write_bytes(
                    Path("sim/asd_stream.jsonl").read_bytes().partition(b"\n")[2])
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            text = f"{code}\n{out.getvalue()}" + (f"\n{err.getvalue()}" if err.getvalue() else "")
            digests[f"call {name}"] = _sha(text.encode())
    finally:
        os.chdir(previous)
    for path in sorted(directory.rglob("*")):
        if path.is_file() and path.name not in INPUTS:
            digests[path.relative_to(directory).as_posix()] = _sha(path.read_bytes())
    return digests


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_round_trip_matches_golden_digests(tmp_path, name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert round_trip_digests(tmp_path / name, CONFIGS[name]) == golden


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {name: round_trip_digests(Path(tmp) / name, doc) for name, doc in CONFIGS.items()}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
