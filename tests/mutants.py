"""Mutation checks: each mutant below must make at least one of its tests fail.

Run from anywhere, with pytest and hypothesis installed::

    python3 tests/mutants.py

For each mutant the script copies ``src/``, ``tests/`` and ``pyproject.toml``
to a temporary directory, replaces the mutant's text, which must occur
exactly once in its file, and runs the mutant's tests there with pytest.
The copy takes the ini too: its ``pythonpath = ["src"]`` goes first on
``sys.path``, so the tests import the mutated copy and not a ``src`` that
``PYTHONPATH`` names.  The tests are first run once on an unmutated copy,
so a test that fails anyway cannot count as a kill.  Tests that run past
the mutant's timeout (``TIMEOUT`` unless its record names a shorter one,
for a mutant that makes the code loop) kill it too.  The script exits 1
when a mutant survives or its text does not match exactly once, and 0 when
every mutant is killed.  Stdlib only; pytest does not collect this file.

A change that rewrites mutated code re-anchors its records here, and a new
mutant is added as a record, with the tests that kill it.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Sequence

ROOT = Path(__file__).resolve().parents[1]

#: seconds one pytest run may take before the mutant counts as killed
TIMEOUT = 600


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids relative to the repository root
    timeout: int = TIMEOUT  # seconds its tests may take before it counts as killed


NORMS = "src/schreierkit/norms.py"
FAMILIES = "src/schreierkit/families.py"
TFAMILY = "src/schreierkit/tfamily.py"
EPS_SCAN = "tests/test_norms.py::test_eps_supports_match_the_per_set_scan"
TRACE_DEFINITION = "tests/test_families.py::test_trace_matches_member_by_member_definition"
TRANSVERSAL_SCAN = "tests/test_tfamily.py::test_transversal_queries_match_barrier_scans"
REFUSAL = "tests/test_refusals.py::test_refusal_and_its_message"
CERTIFICATE = "tests/test_interpolation.py::test_a_row_left_out_wrongly_fails_the_norm_certificate"
BLOCK_ROWS = "tests/test_families.py::test_block_rows_match_the_per_row_walks"
LP = "src/schreierkit/lp.py"
LP_LAYER = "tests/test_parity.py::test_lp_layer"
LP_VECTORS = "tests/test_vectors_lp.py"
LP_DENSE = "tests/test_vectors_lp.py::test_lp_results_match_the_dense_tableau"
SCHREIER = "src/schreierkit/schreier.py"
ENUM_WALK = "tests/test_schreier.py::test_enumeration_matches_the_full_walk"
ENUM_SPARSE = "tests/test_schreier.py::test_enumeration_matches_the_full_walk_on_sparse_windows"
STEPS = "tests/test_schreier.py::test_full_siblings_are_copied_not_stepped"
INCLUSION_WALK = "tests/test_schreier.py::test_check_inclusion_matches_the_full_walk"

MUTANTS = (
    # the eps-support walk's branch-and-bound (norms._eps_supports)
    Mutant(
        "eps-refusal-guard-dropped",
        NORMS,
        "skip = len(s) + rest <= fits and sum(",
        "skip = sum(",
        (EPS_SCAN, "tests/test_norms.py::test_sign_patterns_refused_on_a_hereditary_family"),
    ),
    Mutant(
        "eps-ahead-dropped",
        NORMS,
        "        cut[k] = (tuple(bar - a for a in ahead), rest)\n",
        "        cut[k] = ((bar,) * n_xs, rest)\n",
        ("tests/test_norms.py::test_uniform_weak_bound_cases", EPS_SCAN),
    ),
    Mutant(
        "eps-skip-on-a-tie-dropped",
        NORMS,
        "sum(map(operator.ge, absolute, need)) <= best",
        "sum(map(operator.ge, absolute, need)) < best",
        ("tests/test_norms.py::test_weak_bound_skips_every_subtree_that_cannot_beat_the_best",),
    ),
    Mutant(
        "eps-count-strict",
        NORMS,
        "sum(map(operator.ge, absolute, need)) <= best",
        "sum(map(operator.gt, absolute, need)) <= best",
        (EPS_SCAN, "tests/test_parity.py::test_weak_bound_layer"),
    ),
    Mutant(
        "eps-smaller-definite-support-yielded",
        NORMS,
        "            if best is None or sum(map(bar.__le__, absolute)) > best:\n",
        "            if True:\n",
        ("tests/test_norms.py::test_uniform_weak_bound_cases", EPS_SCAN),
    ),
    Mutant(
        "eps-smaller-pattern-support-yielded",
        NORMS,
        "                if best is None or len(support) > best:\n",
        "                if True:\n",
        ("tests/test_norms.py::test_uniform_weak_bound_signed_enumeration", EPS_SCAN),
    ),
    # the uniform trace search (families.find_uniform_trace)
    Mutant(
        "uniform-trace-bound-inclusive",
        FAMILIES,
        "            if sum(count) > bound:\n",
        "            if sum(count) >= bound:\n",
        (
            "tests/test_families.py::test_find_uniform_trace_found_and_absent",
            "tests/test_families.py::test_find_uniform_trace_matches_the_brute_scan",
        ),
    ),
    # the size caps on exact powers
    Mutant(
        "power-cap-dropped",
        NORMS,
        "    if p * max(sum(weights), scale).bit_length() > MAX_POWER_BITS:\n",
        "    if False:\n",
        ("tests/test_norms.py::test_block_power_refuses_a_power_past_the_size_cap",),
    ),
    Mutant(
        "dfjp-power-cap-skipped",
        "src/schreierkit/interpolation.py",
        "    power_weights(x, pint)\n",
        "",
        ("tests/test_interpolation.py::test_dfjp_norm_refuses_a_huge_integer_p_before_any_lp",),
    ),
    # roots of powers below the float range
    Mutant(
        "float-root-underflow-unscaled",
        NORMS,
        "    if not power or sys.float_info.min <= f < math.inf:\n",
        "    if not power or 0 <= f < math.inf:\n",
        ("tests/test_norms.py::test_float_root_below_float_range",),
    ),
    Mutant(
        "float-block-underflow-accepted",
        NORMS,
        "    if x and not total:\n",
        "    if False:\n",
        ("tests/test_norms.py::test_float_root_below_float_range",),
    ),
    # the run norms (families._run_rows, behind run_norms and the block
    # DP's run_norm_rows); the singleton seed is the sup part of every norm,
    # the block DP's rows and the transversal norms' too, so each of those
    # tests must see it go, the per-row test against its member scans too
    Mutant(
        "run-norms-singletons-unseeded",
        FAMILIES,
        "    at = list(weights)\n",
        "    at = [0] * m\n",
        ("tests/test_norms.py::test_f_norm_examples",),
    ),
    Mutant(
        "block-dp-top-weight-dropped",
        FAMILIES,
        "    at = list(weights)\n",
        "    at = [0] * m\n",
        ("tests/test_norms.py::test_block_rows_match_segment_norms",),
    ),
    Mutant(
        "block-rows-singletons-unseeded",
        FAMILIES,
        "    at = list(weights)\n",
        "    at = [0] * m\n",
        (BLOCK_ROWS,),
    ),
    Mutant(
        "transversal-sup-floor-dropped",
        FAMILIES,
        "    at = list(weights)\n",
        "    at = [0] * m\n",
        (TRANSVERSAL_SCAN,),
    ),
    # the block DP's backward pass (families.run_norm_rows)
    Mutant(
        "block-rows-top-above-the-next-row",
        FAMILIES,
        "        top = max(at[lo:], default=0)\n",
        "        top = max(at, default=0)\n",
        (BLOCK_ROWS, "tests/test_norms.py::test_block_rows_match_segment_norms"),
    ),
    Mutant(
        "block-rows-merge-with-the-next-row-dropped",
        FAMILIES,
        "    for lo, i, stop in walks:\n",
        "    for lo, i, stop in walks:\n        at = list(weights)\n",
        (BLOCK_ROWS, "tests/test_norms.py::test_block_rows_match_segment_norms"),
    ),
    Mutant(
        "block-rows-jump-to-the-next-root-child",
        FAMILIES,
        "subtree.get(support[a], (0, 0))",
        "subtree.get(support[min(a + 1, len(support) - 1)], (0, 0))",
        (BLOCK_ROWS, "tests/test_norms.py::test_block_rows_match_segment_norms"),
    ),
    Mutant(
        "best-set-sum-empty-member-dropped",
        FAMILIES,
        "    if family.contains_empty:\n        sums.append(0)\n",
        "",
        ("tests/test_families.py::test_best_set_sum_is_the_member_maximum_for_every_sign",),
    ),
    # traces from the one walk (families.trace_sums and its readers)
    Mutant(
        "trace-empty-member-dropped",
        FAMILIES,
        "    if family.contains_empty:\n        yield ()\n",
        "",
        (TRACE_DEFINITION,),
    ),
    Mutant(
        "norming-sets-unsorted",
        FAMILIES,
        "sorted({s for s in _traces(family, support) if len(s) >= 2})",
        "[s for s in _traces(family, support) if len(s) >= 2]",
        (TRACE_DEFINITION, "tests/test_families.py::test_hereditary_walks_match_brute_force_and_the_full_walk"),
    ),
    Mutant(
        "restrict-hereditary-flag-dropped",
        FAMILIES,
        "        return trace(family, m)\n",
        "        return Family._of(_traces(family, finite_set(m)))\n",
        ("tests/test_families.py::test_hereditary_walks_match_brute_force_and_the_full_walk",),
    ),
    Mutant(
        "trace-drops-the-inherited-flag",
        FAMILIES,
        "    return Family._of(_traces(family, finite_set(m)), hereditary=family.hereditary_flag)\n",
        "    return Family._of(_traces(family, finite_set(m)))\n",
        ("tests/test_families.py::test_hereditary_walks_match_brute_force_and_the_full_walk",),
    ),
    Mutant(
        "trace-sums-hereditary-skip-on-every-family",
        FAMILIES,
        "    hereditary = family.hereditary_flag\n    # images[d]",
        "    hereditary = True\n    # images[d]",
        ("tests/test_families.py::test_trace_sums_match_member_by_member_sums",),
    ),
    # the eps-supports from the walk (norms._eps_supports)
    Mutant(
        "eps-every-trace-sign-definite",
        NORMS,
        "        if signed == absolute or tuple(map(abs, signed)) == absolute:\n",
        "        if True:\n",
        (EPS_SCAN, "tests/test_parity.py::test_eps_support_layer"),
    ),
    Mutant(
        "eps-singletons-dropped",
        NORMS,
        "    for col in columns.values():\n",
        "    for col in ():\n",
        (EPS_SCAN, "tests/test_parity.py::test_eps_support_layer"),
    ),
    # the block-norm DP on ints (norms.block_p_norm_power, baernstein_norm)
    Mutant(
        "block-power-over-scale-not-scale-to-p",
        NORMS,
        "lambda r: r**p), scale**p)",
        "lambda r: r**p), scale)",
        ("tests/test_norms.py::test_block_norm_power_is_an_exact_fraction",),
    ),
    Mutant(
        "block-float-cell-divides-floats",
        NORMS,
        "lambda r: (r / scale) ** q)",
        "lambda r: (float(r) / float(scale)) ** q)",
        ("tests/test_norms.py::test_block_norm_float_path_past_float_range_ints",),
    ),
    Mutant(
        "block-power-accepts-bool",
        NORMS,
        "    if not isinstance(p, int) or isinstance(p, bool):\n",
        "    if not isinstance(p, int):\n",
        (REFUSAL + "[block-power-p-bool]",),
    ),
    Mutant(
        "block-norm-reads-a-bool-as-p-one",
        NORMS,
        "    if isinstance(p, bool):\n",
        "    if False:\n",
        (REFUSAL + "[baernstein-p-bool]",),
    ),
    # the witness norm reads x on the window only (norms.alpha_null_witness)
    Mutant(
        "alpha-null-witness-reads-past-the-window",
        NORMS,
        "f_norm(x.restrict(sub), fam)",
        "f_norm(x, fam)",
        ("tests/test_norms.py::test_alpha_null_witness_cases",),
    ),
    # the certificate of the rows left out (norms.certify_left_out_rows)
    Mutant(
        "left-out-rows-uncertified",
        NORMS,
        "    if f_norm(point, family) > bound:\n",
        "    if False:\n",
        (CERTIFICATE,),
    ),
    Mutant(
        "gauge-level-accepts-bool",
        "src/schreierkit/interpolation.py",
        "    if not isinstance(level, int) or isinstance(level, bool):\n",
        "    if not isinstance(level, int):\n",
        ("tests/test_refusals.py::test_refusal_and_its_message",),
    ),
    Mutant(
        "n-max-compared-before-its-type-check",
        "src/schreierkit/interpolation.py",
        '    _check_level(n_max, "n_max")\n    if n_max < 1:\n'
        '        raise ValueError(f"n_max must be >= 1, got {n_max}")\n',
        '    if n_max < 1:\n        raise ValueError(f"n_max must be >= 1, got {n_max}")\n'
        '    _check_level(n_max, "n_max")\n',
        (REFUSAL + "[dfjp-norm-n-max-str]",),
    ),
    Mutant(
        "gauge-tolerance-type-unchecked",
        "src/schreierkit/interpolation.py",
        "        if not isinstance(tol, (int, Fraction)) or isinstance(tol, bool):\n",
        "        if False:\n",
        (REFUSAL + "[gauge-tolerance-str]",),
    ),
    Mutant(
        "gauge-certificate-bound-lambda",
        "src/schreierkit/interpolation.py",
        "    bound = res.objective / budget if gauge else res.objective\n",
        "    bound = res.objective\n",
        (CERTIFICATE,),
    ),
    # the condensed-tableau simplex (lp.solve_lp)
    Mutant(
        "simplex-pivot-out-loop-dropped",
        LP,
        "        for i in range(m):\n            if basis[i] >= n_real:\n",
        "        for i in range(0):\n            if basis[i] >= n_real:\n",
        (LP_LAYER, LP_VECTORS),
    ),
    Mutant(
        "simplex-pivot-out-on-the-last-column",
        LP,
        "piv = min((v for v, a in zip(cols, tableau[i]) if a and v < n_real), default=-1)",
        "piv = max((v for v, a in zip(cols, tableau[i]) if a and v < n_real), default=-1)",
        (LP_LAYER,),
    ),
    Mutant(
        "simplex-phase-1-costs-all-one",
        LP,
        "            costs1[unit_col[i]] = unit // scales[i]\n",
        "            costs1[unit_col[i]] = 1\n",
        (LP_LAYER,),
    ),
    Mutant(
        "simplex-ratio-ties-to-the-larger-basis-index",
        LP,
        "(left == right and basis[i] < basis[leave])",
        "(left == right and basis[i] > basis[leave])",
        (LP_LAYER,),
    ),
    Mutant(
        "simplex-leaving-column-sign-kept",
        LP,
        "            new[s] = -f\n",
        "            new[s] = f\n",
        (LP_LAYER, LP_DENSE),
        # the leaving variable re-enters at once, so every solve that takes
        # two pivots cycles; unmutated, these tests take a few seconds
        timeout=60,
    ),
    Mutant(
        "simplex-pivot-row-entry-p-not-d",
        LP,
        "        prow[s] = d\n",
        "        prow[s] = p\n",
        (LP_LAYER, LP_DENSE),
    ),
    # a variable that enters keeps its old column in col_of, so a basic
    # unit variable's dual is read from that stale column instead of 0
    Mutant(
        "simplex-basic-unit-dual-from-a-stale-column",
        LP,
        "        col_of[leaving], col_of[entering] = s, -1\n",
        "        col_of[leaving] = s\n",
        (LP_LAYER, LP_DENSE),
    ),
    # canonical Schreier states and the walks memoised on them (schreier.py)
    Mutant(
        "subtree-memo-key-without-its-position",
        SCHREIER,
        "first[i].setdefault(",
        "first[0].setdefault(",
        # copies of the wrong subtrees grow the arrays without bound on the
        # pinned 1..16 windows; the walk's small windows fail first
        (ENUM_WALK,),
    ),
    Mutant(
        "subtree-copy-depth-offset-dropped",
        SCHREIER,
        "            depth += map((d - depth[j]).__add__, depth[lo:hi])\n",
        "            depth += depth[lo:hi]\n",
        (ENUM_WALK, "tests/test_schreier.py::test_enumeration_writes_the_canonical_layout"),
    ),
    Mutant(
        "full-sibling-size-off-by-one",
        SCHREIER,
        "        if k - prev == 1 << (n - i):\n",
        "        if k - prev == 1 << (n - i + 1):\n",
        # no subtree holds twice the subsets of the labels left, so the rule
        # never fires, and only the count of steps shows it
        (STEPS,),
    ),
    Mutant(
        "full-sibling-size-one-short",
        SCHREIER,
        "        if k - prev == 1 << (n - i):\n",
        "        if k - prev == 1 << (n - i - 1):\n",
        (ENUM_WALK, ENUM_SPARSE),
    ),
    Mutant(
        "full-sibling-depth-not-shifted",
        SCHREIER,
        "            depth += map((-1).__add__, depth[prev + 1:k])\n",
        "            depth += depth[prev + 1:k]\n",
        (ENUM_WALK, ENUM_SPARSE),
    ),
    Mutant(
        "full-sibling-end-not-shifted",
        SCHREIER,
        "            end += map((k - prev - 1).__add__, end[prev + 1:k])\n",
        "            end += map((k - prev).__add__, end[prev + 1:k])\n",
        (ENUM_WALK, ENUM_SPARSE),
    ),
    Mutant(
        "full-sibling-rule-off",
        SCHREIER,
        "        if k - prev == 1 << (n - i):\n",
        "        if False:\n",
        # the memo copies the same subtrees, so the arrays stay equal
        (STEPS,),
    ),
    Mutant(
        "single-frame-spares-one-block-too-many",
        SCHREIER,
        "parent = (level, k - 1, parent, None)",
        "parent = (level, k, parent, None)",
        ("tests/test_schreier.py::test_states_are_canonical",
         "tests/test_schreier.py::test_greedy_blocks_match_block_split_search"),
    ),
    Mutant(
        "run-frame-pushed-with-one-block-fewer",
        SCHREIER,
        "parent = (above, k, parent, top)",
        "parent = (above, k - 1, parent, top)",
        # the frames above a run's lowest one open their blocks only on sets
        # longer than the greedy test's 1..10 subsets; the walks reach them
        (ENUM_WALK, INCLUSION_WALK),
    ),
    Mutant(
        "run-climbs-one-stage-too-high",
        SCHREIER,
        "above = _frame_above(top, k, level)",
        "above = _frame_above(top, k + 1, level)",
        ("tests/test_schreier.py::test_greedy_blocks_match_block_split_search",),
    ),
    Mutant(
        "fresh-level-1-block-kept-as-a-run",
        SCHREIER,
        "None if delta == ((0, 1),) else delta)",
        "delta)",
        # the run climbs from level 1 to its top, level 1, and stops, so it
        # extends like the single frame and only the layout shows it
        ("tests/test_schreier.py::test_states_are_canonical",),
    ),
    Mutant(
        "visited-triple-without-its-beta-state",
        SCHREIER,
        "                if triple not in pushed:\n                    pushed.add(triple)\n",
        "                if triple[::2] not in pushed:\n                    pushed.add(triple[::2])\n",
        # a skipped triple never hid a bad set on any window tried, so the
        # reports stay right; the walk's pushed triples show the gap
        ("tests/test_schreier.py::test_inclusion_walk_pushes_the_state_triples_of_every_member",),
    ),
    # the counterexample family's parameters and norms (cli, tfamily)
    Mutant(
        "config-radices-dropped-by-a-flag",
        "src/schreierkit/cli.py",
        "        obj = {**obj, **{k: v for k, v in flags.items() if v is not None}}\n",
        "        obj = {**obj, **{k: v for k, v in flags.items() if v is not None}}\n"
        "        if args.lam is not None or args.window_max is not None:\n"
        '            obj.pop("radices", None)\n',
        (
            "tests/test_serialize_cli.py::test_cli_tfamily_flags_keep_the_config_radices",
            "tests/test_serialize_cli.py::test_cli_tfamily_window_past_the_config_radices_is_refused",
        ),
    ),
    # every flag a `family` op requires is checked before any file is read
    Mutant(
        "family-flag-loop-checks-only-the-first",
        "src/schreierkit/cli.py",
        "    for flag in flags:\n",
        "    for flag in flags[:1]:\n",
        ("tests/test_serialize_cli.py::test_cli_family_refuses_each_missing_flag",),
    ),
    Mutant(
        "json-null-reads-as-hereditary",
        "src/schreierkit/serialize.py",
        "    return Family(map(_set_array, sets), hereditary=hereditary)\n",
        "    return Family(map(_set_array, sets), hereditary=hereditary is not False)\n",
        ("tests/test_serialize_cli.py::test_family_round_trip",),
    ),
    Mutant(
        "radices-short-table-accepted",
        "src/schreierkit/serialize.py",
        "        if missing is not None:\n",
        "        if False:\n",
        ("tests/test_serialize_cli.py::test_cli_tfamily_short_radix_table_is_refused_in_every_mode",),
    ),
    Mutant(
        "radius-off-by-one",
        TFAMILY,
        "    return candidates[bisect.bisect_left(candidates, True, key=passes)]\n",
        "    return candidates[bisect.bisect_left(candidates, True, key=passes)] + 1\n",
        ("tests/test_tfamily.py::test_radius_examples_and_minimality",),
    ),
    Mutant(
        "transversal-norms-over-no-trace",
        TFAMILY,
        "    traces = Family._of(_point_traces(pts, params))\n",
        "    traces = Family._of(())\n",
        (TRANSVERSAL_SCAN,),
    ),
    Mutant(
        "transversal-report-negative-bound-accepted",
        TFAMILY,
        "    if bound < 0:\n",
        "    if False:\n",
        ("tests/test_tfamily.py::test_transversal_report_refuses_a_negative_bound",),
    ),
)


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def tests_fail(tree: Path, tests: Sequence[str], timeout: int = TIMEOUT) -> tuple[bool, str]:
    """Whether some of ``tests`` fails in ``tree``, and how it ended."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return True, f"timed out after {timeout} s"
    lines = proc.stdout.strip().splitlines()
    return proc.returncode != 0, lines[-1] if lines else proc.stderr.strip()


def run(mutants: Sequence[Mutant]) -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        tests = sorted({t for m in mutants for t in m.tests})
        failed, summary = tests_fail(base, tests)
        if failed:
            print(f"the tests fail unmutated: {summary}")
            return 1
        for i, m in enumerate(mutants):
            text = (ROOT / m.path).read_text()
            if text.count(m.old) != 1:
                print(f"STALE     {m.name}: its text occurs {text.count(m.old)} times in {m.path}")
                failures += 1
                continue
            tree = Path(tmp) / f"m{i}"
            copy_tree(tree)
            (tree / m.path).write_text(text.replace(m.old, m.new))
            start = time.perf_counter()
            killed, summary = tests_fail(tree, m.tests, m.timeout)
            elapsed = time.perf_counter() - start
            print(f"{'killed' if killed else 'SURVIVED':9} {m.name} ({elapsed:.1f} s: {summary})")
            failures += not killed
            shutil.rmtree(tree)
    print(f"{len(mutants) - failures} of {len(mutants)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run(MUTANTS))
