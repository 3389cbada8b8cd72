import doctest
import os
import subprocess
import sys
from pathlib import Path

import tropidom

# The public names at the time they were pinned. A change that removes or
# renames one edits this list and says why in CHANGES.md.
PUBLIC_NAMES = [
    "ApproxResult", "BoundsReport", "CnfFormula", "ColouredGraph", "DEFAULT_BUDGET",
    "DegreeProfile", "ExperimentReport", "Instance", "IntervalInstance",
    "RandomModel", "ReductionArtifact", "SolveResult", "SubcubicGraph", "approx",
    "audit_bounds", "build", "build_interval_instance", "concentration_window",
    "count_rainbow_ds", "degree_profile", "errors", "exact", "expected_rainbow_count",
    "extract_vc", "extremal_edge_bound", "extremal_gamma_plus", "forge", "gamma", "gamma_t",
    "gen_gnpc", "graph", "greedy_setcover_tds", "instance_io", "interval", "is_connected",
    "is_dominating", "is_rainbow", "is_tropical", "mds_plus_colours", "pad_colours",
    "parse_dimacs_cnf", "parse_instance", "path_five_thirds", "path_intervals",
    "path_lower_bound", "path_order", "problab", "rainbow_exists",
    "run_concentration_experiment", "run_expectation_experiment", "run_threshold_experiment",
    "sat_to_path", "search_conjecture", "tdn_interval",
    "threshold_colours", "vc_to_path", "write_instance",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 57
    assert sorted(tropidom.__all__) == PUBLIC_NAMES


def test_import_leaves_mpmath_unloaded():
    """mpmath is imported by expected_rainbow_count alone and networkx by
    search_conjecture alone, and nothing imports scipy, so a CLI start or an
    import of the package pays for none of them."""
    src = str(Path(tropidom.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, tropidom, tropidom.cli; "
        "print(sorted({'mpmath', 'networkx', 'scipy'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_readme_example():
    """README.md's python block is a doctest, so its shown results are checked."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", "README.md", 0)
    report = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.attempted and not result.failed, "".join(report)
