"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers.

The batch criteria (6-8) run the standard setup (24 individuals, sample
size 12, 100 runs, 10 generations, master seed 1) once per needed variant
through the shipped `run_batch`, and share the resulting series (with its
per-run values) across tests via module-scoped fixtures.

Each criterion's measured numbers come from a plain function of its seed or
its series, which tools/criteria_sweep.py calls over a range of seeds.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from coevoscape import cli
from coevoscape.evolution import run_trajectory
from coevoscape.experiment import (POPULATIONS, ExperimentConfig, run_batch,
                                   trajectory_seed)
from coevoscape.landscape import (bhatt, dist, kld, subjective_profile_test,
                                  subjective_profiles)
from coevoscape.substrate import (eval_objective_shared, eval_objective_test,
                                  kind_from_name, subjective_test)

# hand-computed oracle values for the uniform {1, 1} vs normalized
# {0.25, 0.75} histogram pair
KLD_HALF_QUARTER = 0.20751874963942185
BHATT_HALF_QUARTER = 0.18459191128251476


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def profile(values):
    return np.asarray(values, dtype=float)


@pytest.fixture(scope="module")
def smooth_competitive():
    return run_batch(ExperimentConfig())


@pytest.fixture(scope="module")
def smooth_cooperative():
    return run_batch(ExperimentConfig(task_p1="maximize"))


@pytest.fixture(scope="module")
def sinusoid_competitive():
    return run_batch(ExperimentConfig(function="sinusoid"))


def anchor_checks() -> list[bool]:
    """Criterion 1: whether each anchor value of the four functions is exact."""
    crisp = kind_from_name("crisp")
    smooth = kind_from_name("smooth")
    ridge = kind_from_name("ridge", ridge_n=8.0)
    sinusoid = kind_from_name("sinusoid")
    return [
        eval_objective_test(crisp, 1.0) == 1.0,
        eval_objective_test(crisp, -0.5) == 0.5,
        eval_objective_test(crisp, 1.25) == 0.5,
        eval_objective_test(smooth, -1.0) == 0.0,
        eval_objective_test(smooth, 1.0) == 1.0,
        eval_objective_shared(ridge, 8.0, 8.0) == 16.0,
        eval_objective_shared(ridge, 0.0, 8.0) == 0.0,
        eval_objective_shared(ridge, 8.0, 0.0) == 0.0,
        eval_objective_shared(ridge, -1.0, 4.0) == 8.0,
        abs(eval_objective_shared(sinusoid, 0.4925, 0.4925) - 0.5611) <= 1e-3,
        abs(eval_objective_shared(sinusoid, -0.4925, -0.4925) + 0.5611) <= 1e-3,
    ]


def test_objective_anchor_values():
    checks = anchor_checks()
    report(1, "objective anchor values", all(checks),
           f"{sum(checks)}/{len(checks)} anchors exact")
    assert all(checks)


def off_lattice_values(seed: int) -> int:
    """Criterion 2: test-based subjective values off the k/12 lattice, over
    10,000 random (x, 12-member sample) pairs per test-based function."""
    rng = np.random.default_rng(seed)
    levels = {k / 12 for k in range(13)}
    bad = 0
    for kind_name in ("crisp", "smooth"):
        kind = kind_from_name(kind_name)
        for _ in range(10_000):
            x = rng.uniform(-3.0, 3.0)
            sample = rng.uniform(-3.0, 3.0, size=12)
            if subjective_test(x, sample, kind) not in levels:
                bad += 1
    return bad


def test_subjective_levels_are_twelfths():
    bad = off_lattice_values(101)
    report(2, "subjective values quantized to k/12", bad == 0,
           f"{bad} off-lattice values in 20000 pairs")
    assert bad == 0


def subjective_gap(seed: int) -> float:
    """Criterion 3: sup gap between crisp's objective profile and its
    subjective profile against 10,000 uniform evaluators."""
    rng = np.random.default_rng(seed)
    kind = kind_from_name("crisp")
    grid = np.linspace(0.0, 1.0, 101)
    evaluators = rng.uniform(0.0, 1.0, size=10_000)
    sub = subjective_profile_test(grid, evaluators, kind, np.arange(evaluators.size)[None])
    return float(np.max(np.abs(sub - eval_objective_test(kind, grid))))


def test_subjective_converges_to_objective():
    gap = subjective_gap(7)
    report(3, "large-sample subjective matches objective", gap <= 0.03,
           f"sup gap {gap:.4f} <= 0.03")
    assert gap <= 0.03


def profile_mismatches(seed: int) -> int:
    """Criterion 4: subjective profiles of run 0 (master seed `seed`) of
    ridge and sinusoid that differ from the shared function's slice at the
    partner, over 11 generations and both populations."""
    mismatches = 0
    for name in ("ridge", "sinusoid"):
        config = ExperimentConfig(function=name, generations=10)
        kind = config.objective_kind()
        grid = config.grid()
        traj = run_trajectory(config, [trajectory_seed(seed, 0)])
        sub = subjective_profiles(traj, 0, grid, kind)
        partners, best = traj.partners[0], traj.best[0]
        for k in range(config.generations + 1):
            if k > 0:
                assert partners[k, 0] == best[k - 1, 1]
                assert partners[k, 1] == best[k - 1, 0]
            sub1, sub2 = sub[k]
            # the population's own coordinate is always the first argument
            want1 = np.array([eval_objective_shared(kind, float(x), partners[k, 0])
                              for x in grid])
            want2 = np.array([eval_objective_shared(kind, float(x), partners[k, 1])
                              for x in grid])
            mismatches += int(not np.array_equal(sub1, want1))
            mismatches += int(not np.array_equal(sub2, want2))
    return mismatches


def test_compositional_profiles_are_exact_slices():
    mismatches = profile_mismatches(1)
    report(4, "compositional subjective profiles are shared-function slices",
           mismatches == 0,
           f"{mismatches} profile mismatches over 2 substrates x 11 generations")
    assert mismatches == 0


def failed_measure_checks(seed: int) -> list[str]:
    """Criterion 5: names of the measure axioms and hand values that fail,
    the axioms checked on 1,000 random profile pairs."""
    uniform = profile([1.0, 1.0])
    skew = profile([0.5, 1.5])
    ramp = profile([0.0, 0.5, 1.0])
    rng = np.random.default_rng(seed)
    checks = {
        "identity zero": (dist(ramp, ramp) == 0.0
                          and kld(uniform, uniform) == 0.0
                          and bhatt(uniform, uniform) == 0.0),
        "kld hand value": kld(uniform, skew) == pytest.approx(
            KLD_HALF_QUARTER, abs=1e-12),
        "bhatt hand value": bhatt(uniform, skew) == pytest.approx(
            BHATT_HALF_QUARTER, abs=1e-12),
        "dist flip": dist(profile([0.0, 1.0]), profile([1.0, 0.0]))
            == pytest.approx(1.0, abs=1e-12),
        "kld asymmetry": kld(uniform, skew) != kld(skew, uniform),
    }
    nonneg = True
    bounded = True
    for _ in range(1000):
        obj = rng.uniform(size=15)
        obj[0], obj[1] = 0.0, 1.0
        sub = rng.uniform(size=15)
        a, b = profile(obj), profile(sub)
        nonneg = nonneg and kld(a, b) >= 0.0
        bounded = bounded and 0.0 <= dist(a, b) <= 1.0 and 0.0 <= bhatt(a, b) <= 1.0
    checks["kld nonnegative"] = nonneg
    checks["dist/bhatt bounded"] = bounded
    return [name for name, ok in checks.items() if not ok]


def test_measure_axioms():
    failed = failed_measure_checks(30)
    report(5, "measure axioms and hand values", not failed,
           "all checks hold" if not failed else "failed: " + ", ".join(failed))
    assert not failed


def cooperative_gap(comp, coop) -> tuple[float, bool]:
    """Criterion 6: the ratio of the cooperative to the competitive mean gap
    between the populations' dist curves, and whether the cooperative dist
    lies above the competitive one for both populations at k = 5..10."""

    def pop_gap(series):
        return float(np.mean(np.abs(series.mean[:, 0, 0] - series.mean[:, 1, 0])))

    ratio = pop_gap(coop) / pop_gap(comp)
    late = slice(5, 11)
    coop_above = bool(np.all(coop.mean[late, :, 0] > comp.mean[late, :, 0]))
    return ratio, coop_above


def test_cooperative_gap_and_ordering(smooth_competitive, smooth_cooperative):
    ratio, coop_above = cooperative_gap(smooth_competitive, smooth_cooperative)
    ok = ratio < 0.5 and coop_above
    report(6, "cooperation: coinciding curves, larger distance", ok,
           f"population gap ratio {ratio:.3f} vs < 0.5; "
           f"cooperative dist above competitive at k=5..10: {coop_above}")
    assert ratio < 0.5, (
        "cooperative populations do not coincide more tightly than competitive "
        f"ones at this seed (ratio {ratio:.3f}); both interaction modes are "
        "statistically symmetric on this substrate, so the gap is noise")
    assert coop_above


def distance_changes(series) -> list[tuple[float, float]]:
    """Criterion 7: per population, the mean absolute change of a run's dist
    late (k = 8 to 10) and early (k = 0 to 2)."""
    changes = []
    for i in range(len(POPULATIONS)):
        values = series.values[:, :, i, 0]
        early = float(np.mean(np.abs(values[:, 2] - values[:, 0])))
        late = float(np.mean(np.abs(values[:, 10] - values[:, 8])))
        changes.append((late, early))
    return changes


def test_distance_stops_changing(smooth_competitive):
    details = []
    ok = True
    for pop, (late, early) in zip(POPULATIONS, distance_changes(smooth_competitive)):
        ok = ok and late < early
        details.append(f"{pop} late {late:.4f} < early {early:.4f}")
    report(7, "distance change flattens with run time", ok, "; ".join(details))
    assert ok


def interval_widths(smooth, sinusoid) -> tuple[float, float]:
    """Criterion 8: the mean width of the dist confidence intervals at k = 5
    over both populations, sinusoid first, then smooth."""

    def width_at_5(series):
        return float(np.mean(series.ci_hi[5, :, 0] - series.ci_lo[5, :, 0]))

    return width_at_5(sinusoid), width_at_5(smooth)


def test_compositional_intervals_wider(smooth_competitive, sinusoid_competitive):
    w_sin, w_smooth = interval_widths(smooth_competitive, sinusoid_competitive)
    ok = w_sin > w_smooth
    report(8, "compositional confidence intervals wider", ok,
           f"sinusoid {w_sin:.4f} > smooth {w_smooth:.4f} at k=5")
    assert ok


def output_checks(directory, seed: int, series) -> tuple[bool, bool, int]:
    """Criterion 9, in `directory`: whether two serial and one 2-worker
    4-run `measures` batches at `seed` write the same bytes, whether the
    measures and snapshot headers are pinned, and the number of rows
    `series` gives through the CLI's emitter."""
    data = {"evolution": {"generations": 10},
            "experiment": {"runs": 4, "master_seed": seed}}
    cfg = directory / "config.json"
    cfg.write_text(json.dumps(data))
    outs = [directory / name for name in ("a", "b", "c")]
    for out, extra in zip(outs, ([], [], ["--workers", "2"])):
        rc = cli.main(["measures", "--config", str(cfg), "--out", str(out)] + extra)
        assert rc == 0
    blobs = [(out / "measures.csv").read_bytes() for out in outs]
    deterministic = blobs[0] == blobs[1] == blobs[2]

    rc = cli.main(["simulate", "--config", str(cfg), "--out", str(directory / "sim"),
                   "--generations", "0"])
    assert rc == 0
    snap_header = (directory / "sim" / "snapshots" / "landscape_k0.csv"
                   ).read_text().splitlines()[0]
    measures_lines = blobs[0].decode().splitlines()
    schema_ok = (measures_lines[0] == "generation,population,measure,mean,ci_lo,ci_hi"
                 and snap_header == "x,f_obj,f_sub_p1,f_sub_p2")

    # the standard-setup series written through the same emitter as the CLI
    path = cli.write_table(directory / "measures.csv", cli.MEASURES_HEADER,
                           series.rows(), json_mirror=False)
    return deterministic, schema_ok, len(path.read_text().splitlines()) - 1


def test_output_determinism_and_schema(tmp_path, smooth_competitive):
    deterministic, schema_ok, default_rows = output_checks(tmp_path, 9, smooth_competitive)
    ok = deterministic and schema_ok and default_rows == 66
    report(9, "deterministic, schema-stable outputs", ok,
           f"byte-identical reruns: {deterministic}; headers pinned: {schema_ok}; "
           f"default measures rows: {default_rows}")
    assert deterministic
    assert schema_ok
    assert default_rows == 66
