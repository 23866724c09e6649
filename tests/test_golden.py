"""Golden outputs: sha256 of every file each shipped config writes at seed 0.

A refactor that must not change results keeps these hashes.  An intended
change to the outputs regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.  Manifests are left out because they carry
version strings.
"""

import hashlib
import json
from pathlib import Path

import pytest

from paclab.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
SEED = 0
# The full adversarial config takes about 5 s; fewer trials still run
# every sweep path.
OVERRIDES = {"gc_adversarial": {"trials": 20}}


def output_hashes(name, out_dir):
    config = json.loads((CONFIGS / f"{name}.json").read_text())
    config.update(OVERRIDES.get(name, {}))
    cfg = out_dir / "config.json"
    cfg.write_text(json.dumps(config))
    subcommand = name.split("_")[0]
    code = main([subcommand, "--config", str(cfg), "--seed", str(SEED),
                 "--out", str(out_dir)])
    assert code == 0
    manifest = json.loads((out_dir / f"{subcommand}_manifest.json").read_text())
    return {out: hashlib.sha256((out_dir / out).read_bytes()).hexdigest()
            for out in manifest["outputs"]}


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
def test_outputs_match_golden(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert output_hashes(name, tmp_path) == golden[name]


def test_golden_covers_exactly_the_shipped_configs():
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == {p.stem for p in CONFIGS.glob("*.json")}


if __name__ == "__main__":
    import tempfile

    doc = {}
    for path in sorted(CONFIGS.glob("*.json")):
        with tempfile.TemporaryDirectory() as tmp:
            doc[path.stem] = output_hashes(path.stem, Path(tmp))
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
