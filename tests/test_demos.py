"""Every demo script runs to completion and writes its tables."""

import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_demo_runs(tmp_path):
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for demo in demos:
        script = tmp_path / demo.name
        shutil.copy(demo, script)
        done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (demo.name, done.stderr)
    for table in ("spectrum_curves.csv", "profile_n2.csv", "profile_n3.csv", "budget_scan.csv"):
        assert (tmp_path / table).stat().st_size > 0, table
