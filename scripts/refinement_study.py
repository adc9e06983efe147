#!/usr/bin/env python3
"""Two-resolution refinement study (CI-style margin tracking).

Margins must not systematically decrease under refinement; spectra and
saturation gaps must improve.  Prints one table row per quantity.
"""
from heatlab import ModelSpec, build_model, node_nearest, spectral_decompose
from heatlab.checks import check_li_yau, span_cd_margin
from heatlab.suites import point_source_fields


def sphere_cd(mt):
    model, oracle = build_model(ModelSpec("sphere", dim=2, resolution=mt))
    spectral = spectral_decompose(model, k=60)
    # worst margin over the span of eigenfields 1..9 (whole eigenvalue
    # clusters), which no choice of basis inside a cluster can move
    margin = span_cd_margin(model, oracle, spectral.eigenfields[:, 1:10])
    lam_err = abs(spectral.eigenvalues[1] - 2.0) / 2.0
    return margin, lam_err


def flat_li_yau(m):
    model, oracle = build_model(
        ModelSpec("euclidean", dim=2, resolution=m, extent=1.5))
    suite = point_source_fields(model, node_nearest(model, [0.0, 0.0]), width=0.25)
    rep = check_li_yau(model, oracle, suite, [0.05, 0.1],
                       mode="rho0", saturation_fields=("point-source",),
                       saturation_rtol=1.0)
    sat = [s for s in rep.samples if s["field"].endswith("|saturation")][0]
    return rep.min_margin / rep.scale, sat["lhs"] / rep.scale


def main():
    print(f"{'quantity':42s} {'coarse':>12s} {'fine':>12s}")
    a24, e24 = sphere_cd(24)
    a32, e32 = sphere_cd(32)
    print(f"{'sphere CD rel min margin (mt 24 -> 32)':42s} {a24:12.5f} {a32:12.5f}")
    print(f"{'sphere gap rel error':42s} {e24:12.2e} {e32:12.2e}")
    assert a32 >= a24 - 0.005, "margin deteriorated under refinement"
    assert e32 < e24

    l32, s32 = flat_li_yau(32)
    l48, s48 = flat_li_yau(48)
    print(f"{'flat li-yau rel min margin (m 32 -> 48)':42s} {l32:12.5f} {l48:12.5f}")
    print(f"{'flat saturation rel gap':42s} {s32:12.2e} {s48:12.2e}")
    assert l48 >= l32 - 0.005
    print("refinement study: margins are monotone-safe")


if __name__ == "__main__":
    main()
