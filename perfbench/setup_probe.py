"""Set-up work of one workload in a fresh process.

Imports the package, builds every distribution the workload's studies use
and resolves each CLI study's argument list.  `run.py` times this script as
a subprocess; it prints nothing on success.

    python3 perfbench/setup_probe.py WORKLOAD
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS, CliStudy, cli, kw  # noqa: E402

workload = WORKLOADS[sys.argv[1]]
parser = cli.build_parser()
for study in workload.studies:
    if isinstance(study, CliStudy):
        kw.make_distribution(study.params["distribution"])
        parser.parse_args(study.argv(0, "setup-probe"))
