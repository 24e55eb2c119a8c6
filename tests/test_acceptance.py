"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is fixed here, not calibrated at runtime.
"""

import subprocess
import sys

import numpy as np
import pytest

from qfiext import (
    DirectionParams,
    HermitianOperator,
    NvParams,
    PureState,
    broken_phase_shift_family,
    broken_phase_shift_generator_at_zero,
    channel_qfi,
    channel_qfi_brute,
    direction_family,
    direction_reference_subtraction_qfi,
    direction_sz_family,
    expm_unitary,
    flood,
    generator_fd,
    generator_quadrature,
    generator_spectral,
    gyromagnetic_ratio,
    nv_flooded_family,
    predicted_subtraction_deficit,
    qfi_pure,
    random_hermitian,
    seminorm,
    subtract_perturbed,
    tensor_identity,
    upper_bound,
)
from helpers import broken_phase_shift_closed_form, cli_env, polynomial_family, random_state

GAMMA = gyromagnetic_ratio()


def report_line(number: int, ok: bool, detail: str) -> bool:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def rel_dev(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)


def test_criterion_01_phase_shift_saturation():
    rng = np.random.default_rng(101)
    worst = 0.0
    zero = lambda d: HermitianOperator(np.zeros((d, d)))
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        g = random_hermitian(dim, rng)
        fam = broken_phase_shift_family(g, zero(dim))
        theta = float(rng.uniform(-2.0, 2.0))
        for t in (0.1, 1.0, 10.0):
            rep = channel_qfi(fam, theta, t)
            worst = max(
                worst,
                rel_dev(rep.channel_qfi, t * t * seminorm(g) ** 2),
                abs(rep.ratio - 1.0),
            )
    ok = worst < 1e-10
    assert report_line(1, ok, f"phase-shift saturation, worst deviation {worst:.2e} < 1e-10")


def test_criterion_02_direction_closed_forms():
    params = [DirectionParams(B=1e-9, theta=np.pi / 3, phi=np.pi / 4, t=float(t))
              for t in np.geomspace(1e-4, 1e-1, 50)]
    worst = 0.0
    for p in params:
        rep = channel_qfi(direction_family(p), p.theta, p.t)
        a = GAMMA * p.B * p.t
        worst = max(
            worst,
            rel_dev(rep.channel_qfi, 16.0 * np.sin(a / 2.0) ** 2),
            rel_dev(rep.upper_bound, 4.0 * a * a),
        )
    ok = worst < 1e-8
    assert report_line(2, ok, f"direction closed forms on 50-point t grid, worst {worst:.2e} < 1e-8")


def test_criterion_03_subtraction_and_closed_form():
    p = DirectionParams(B=1e-9, theta=np.pi / 3, phi=np.pi / 4, t=1e-2)
    fam = direction_family(p)
    worst = 0.0
    for eps in (0.0, 0.01, 0.1, 0.3, 0.6):
        measured = channel_qfi(subtract_perturbed(fam, p.theta, eps), p.theta, p.t)
        reference = direction_reference_subtraction_qfi(p, p.theta, eps)
        worst = max(worst, rel_dev(measured.channel_qfi, reference))
        if eps == 0.0:
            ratio_dev = abs(measured.ratio - 1.0)
    eps_grid = np.geomspace(1e-3, 1e-1, 9)
    bound = upper_bound(fam, p.theta, p.t)
    deficits = [
        bound - channel_qfi(subtract_perturbed(fam, p.theta, float(e)), p.theta, p.t).channel_qfi
        for e in eps_grid
    ]
    slope = float(np.polyfit(np.log(eps_grid), np.log(deficits), 1)[0])
    ok = worst < 1e-6 and ratio_dev < 1e-9 and abs(slope - 4.0) < 0.2
    assert report_line(
        3,
        ok,
        f"subtraction: closed-form dev {worst:.2e} < 1e-6, exact ratio dev {ratio_dev:.2e} "
        f"< 1e-9, deficit slope {slope:.3f} in 4.0 +- 0.2",
    )


def test_criterion_04_flooding_equality_and_convergence():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        fam = polynomial_family(rng, dim)
        theta0 = float(rng.uniform(-0.5, 0.5))
        beta = float(rng.uniform(0.2, 1.5))
        t = float(rng.uniform(0.5, 1.5))
        psi0 = random_state(rng, dim)
        flooded = flood(fam, theta0, beta)
        theta_qfi = qfi_pure(flooded, theta0, t, PureState(psi0))

        h0 = fam.value(theta0).matrix
        d0 = fam.derivative(theta0).matrix
        step = 1e-5 * max(1.0, abs(beta))

        def state(b):
            return expm_unitary(HermitianOperator(h0 + b * d0), t).matrix @ psi0

        dpsi = (state(beta + step) - state(beta - step)) / (2.0 * step)
        psi = state(beta)
        beta_qfi = 4.0 * (float((dpsi.conj() @ dpsi).real) - abs(psi.conj() @ dpsi) ** 2)
        worst = max(worst, rel_dev(theta_qfi, beta_qfi))
    equality_ok = worst < 1e-6

    # The NV level anti-crossing sits at D/gamma = 0.102 T, so convergence to
    # the bound shows only for beta well beyond it.
    params = NvParams(Bx=0.1, By=0.0, t=1e-3)
    betas = (1e-6, 1e-3, 1e-1, 1.0, 10.0)
    ratios = [
        channel_qfi(nv_flooded_family(params, beta), 1e-6, params.t).ratio
        for beta in betas
    ]
    monotone_ok = all(lo < hi for lo, hi in zip(ratios, ratios[1:]))
    final_ok = ratios[-1] > 0.99
    ok = equality_ok and monotone_ok and final_ok
    listed = ", ".join(f"{b:g} T: {r:.6g}" for b, r in zip(betas, ratios))
    assert report_line(
        4,
        ok,
        f"flooding: theta/beta QFI equality worst {worst:.2e} < 1e-6 ({equality_ok}), "
        f"NV ratios by beta ({listed}), monotone ({monotone_ok}), "
        f">0.99 at beta={betas[-1]:g} T ({final_ok})",
    )


def test_criterion_05_broken_phase_shift_shift_identity():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        g = random_hermitian(dim, rng)
        f = random_hermitian(dim, rng)
        fam = broken_phase_shift_family(g, f)
        theta0 = float(rng.uniform(-1.0, 1.0))
        beta = float(rng.uniform(-1.0, 1.0))
        t = float(rng.uniform(0.5, 1.5))
        flooded = channel_qfi(flood(fam, theta0, beta), theta0, t).channel_qfi
        shifted = channel_qfi(fam, theta0 + beta, t).channel_qfi
        worst = max(worst, abs(flooded - shifted) / max(1.0, abs(shifted)))
    ok = worst < 1e-10
    assert report_line(5, ok, f"flooded K(theta) equals K(theta+beta), worst {worst:.2e} < 1e-10")


def test_criterion_06_generator_cross_validation():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        fam = polynomial_family(rng, dim)
        theta = float(rng.uniform(-1.0, 1.0))
        t = float(rng.uniform(0.5, 1.5))
        mats = [
            generator_spectral(fam, theta, t).generator.matrix,
            generator_quadrature(fam, theta, t).generator.matrix,
            generator_fd(fam, theta, t).generator.matrix,
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                worst = max(worst, float(np.max(np.abs(mats[i] - mats[j]))))
    methods_ok = worst < 1e-6

    worst_bps = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 6))
        g = random_hermitian(dim, rng)
        f = random_hermitian(dim, rng)
        fam = broken_phase_shift_family(g, f)
        t = float(rng.uniform(0.5, 1.5))
        closed = broken_phase_shift_closed_form(g, f, t)
        for general in (
            broken_phase_shift_generator_at_zero(g, f, t).matrix,
            generator_spectral(fam, 0.0, t).generator.matrix,
            generator_fd(fam, 0.0, t).generator.matrix,
        ):
            worst_bps = max(worst_bps, float(np.max(np.abs(closed - general))))
    bps_ok = worst_bps < 1e-7
    ok = methods_ok and bps_ok
    assert report_line(
        6,
        ok,
        f"generator routes agree: 200-family pairwise worst {worst:.2e} < 1e-6, "
        f"closed form at theta=0 worst {worst_bps:.2e} < 1e-7",
    )


def test_criterion_07_brute_force_oracle_equivalence():
    rng = np.random.default_rng(107)
    worst = 0.0
    overshoot = 0.0
    for k in range(50):
        dim = int(rng.integers(2, 5))
        fam = polynomial_family(rng, dim)
        theta = float(rng.uniform(-1.0, 1.0))
        t = float(rng.uniform(0.5, 1.5))
        closed = channel_qfi(fam, theta, t).channel_qfi
        brute = channel_qfi_brute(fam, theta, t, n_starts=8, seed=k)
        worst = max(worst, rel_dev(brute, closed))
        overshoot = max(overshoot, brute - closed)
    ok = worst < 1e-4 and overshoot <= 1e-9
    assert report_line(
        7,
        ok,
        f"brute-force oracle within {worst:.2e} < 1e-4 of the semi-norm value, "
        f"max overshoot {overshoot:.2e} <= 1e-9",
    )


def test_criterion_08_time_scaling_engineering():
    p = DirectionParams(B=1e-9, theta=np.pi / 3, phi=np.pi / 4)
    ts = np.geomspace(1e-3, 1e-1, 50)
    extended = direction_sz_family(p, 10.0)
    values = [channel_qfi(extended, p.theta, float(t)).channel_qfi for t in ts]
    slope = float(np.polyfit(np.log(ts), np.log(values), 1)[0])
    slope_ok = abs(slope - 2.0) < 0.05

    plain = direction_family(p)
    plain_max = max(channel_qfi(plain, p.theta, float(t)).channel_qfi for t in ts)
    bounded_ok = plain_max <= 16.0 + 1e-9

    huge = direction_sz_family(p, 1e9)
    huge_ratios = [channel_qfi(huge, p.theta, float(t)).ratio for t in (1e-2, 1e-1)]
    ratio_ok = all(r < 1.0 for r in huge_ratios)
    ok = slope_ok and bounded_ok and ratio_ok
    assert report_line(
        8,
        ok,
        f"z-field extension: kappa=10 slope {slope:.3f} in 2.0 +- 0.05, unextended max "
        f"{plain_max:.3f} <= 16, kappa=1e9 ratio stays < 1 ({max(huge_ratios):.4f})",
    )


def test_criterion_09_second_order_deficit_prediction():
    rng = np.random.default_rng(109)
    eps = 1e-3
    worst = 0.0
    details = []
    for _ in range(20):
        fam = polynomial_family(rng, 3)
        theta0 = float(rng.uniform(-0.5, 0.5))
        t = float(rng.uniform(0.8, 1.2))
        hdot = fam.derivative(theta0)
        hddot = fam.second_derivative(theta0)
        gamma = hddot.matrix @ hdot.matrix - hdot.matrix @ hddot.matrix
        assert np.max(np.abs(gamma)) > 1e-3  # nonzero commutator as required
        measured = (
            channel_qfi(subtract_perturbed(fam, theta0, eps), theta0, t).channel_qfi
            - upper_bound(fam, theta0, t)
        )
        predicted = predicted_subtraction_deficit(fam, theta0, eps, t)
        ratio = measured / predicted if predicted != 0.0 else float("inf")
        details.append(ratio)
        worst = max(worst, abs(ratio - 1.0))
    ok = worst < 0.1
    assert report_line(
        9,
        ok,
        f"second-order deficit prediction: worst |measured/predicted - 1| = {worst:.3g} "
        f"(target < 0.1), measured/predicted from {min(details):.4g} to {max(details):.4g}",
    )


def test_criterion_10_ancilla_noop():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        fam = polynomial_family(rng, dim)
        theta = float(rng.uniform(-1.0, 1.0))
        t = float(rng.uniform(0.5, 1.5))
        plain = channel_qfi(fam, theta, t).channel_qfi
        lifted = channel_qfi(tensor_identity(fam, 2), theta, t).channel_qfi
        worst = max(worst, abs(lifted - plain) / max(1.0, abs(plain)))
    ok = worst < 1e-10
    assert report_line(10, ok, f"tensoring an identity ancilla, worst deviation {worst:.2e} < 1e-10")


def test_criterion_11_cli_determinism_and_validation(tmp_path):
    first = subprocess.run(
        [sys.executable, "-m", "qfiext.cli", "sweep", "--preset", "fig3"],
        capture_output=True, check=True, env=cli_env(),
    )
    second = subprocess.run(
        [sys.executable, "-m", "qfiext.cli", "sweep", "--preset", "fig3"],
        capture_output=True, check=True, env=cli_env(),
    )
    identical = first.stdout == second.stdout

    from importlib import resources

    fixture = str(
        resources.files("qfiext").joinpath("data/fixtures/corrupt-derivative.json")
    )
    validation = subprocess.run(
        [sys.executable, "-m", "qfiext.cli", "validate", fixture], capture_output=True,
        env=cli_env(),
    )
    exit_ok = validation.returncode == 3
    ok = identical and exit_ok
    assert report_line(
        11,
        ok,
        f"CLI: fig3 CSV byte-identical across runs ({identical}), corrupted fixture "
        f"exits 3 ({exit_ok})",
    )
