#!/usr/bin/env python3
"""Regenerate the 50-digit reference values of the decoy-sweep workload.

The decoy-sweep workload checks Q_mu, E_mu, Q_m0 and E_m0 of every
distance on its grid against this table. The values are computed here
with mpmath from the model's formulas, apart from the package:

* Q_mu = 8 y^4 [I0(2x) - 2y I0(x) + y^2] and E_mu = 8 y^4 [1 - 2y I0(x)
  + y^2] / Q_mu, the phase-averaged gain and error fraction;
* Q_m0 and E_m0, the first of N phase slices. The slice average over
  theta_a, theta_b in [0, pi/N] depends only on d = theta_a - theta_b, so
  it is the 1-D integral (2N/pi^2) int_0^w (w - d) g(d) dd with w = pi/N
  and g the even gain (or error) density at relative phase d.

Usage (needs mpmath; takes a few seconds):

    python3 perfbench/make_reference.py
"""

import json
import os

import mpmath

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "decoy_reference.json")

DIGITS = 50
# Inputs of the decoy-sweep workload: the CLI's default channel.
INPUTS = {
    "mu": "0.5",
    "n_slices": 16,
    "eta_det": "0.145",
    "p_dark": "3e-6",
    "alpha_db_per_km": "0.2",
    "L_min": 0.0,
    "L_max": 500.0,
    "L_step": 5.0,
}


def distances(inputs=INPUTS):
    count = int(round((inputs["L_max"] - inputs["L_min"]) / inputs["L_step"])) + 1
    return [inputs["L_min"] + k * inputs["L_step"] for k in range(count)]


def reference_row(l_km):
    mp = mpmath.mp
    mu = mpmath.mpf(INPUTS["mu"])
    eta = mpmath.mpf(INPUTS["eta_det"]) * mpmath.power(
        10, -mpmath.mpf(INPUTS["alpha_db_per_km"]) * mpmath.mpf(l_km) / 2 / 10
    )
    p_dark = mpmath.mpf(INPUTS["p_dark"])
    x = eta * mu / 3
    y = (1 - p_dark) * mpmath.exp(-2 * eta * mu / 6)
    y4 = y**4

    q_mu = 8 * y4 * (mpmath.besseli(0, 2 * x) - 2 * y * mpmath.besseli(0, x) + y * y)
    err_mu = 8 * y4 * (1 - 2 * y * mpmath.besseli(0, x) + y * y)

    def gain_density(d):
        c = mpmath.cos(d)
        return 4 * y4 * (
            mpmath.exp(2 * x * c) + mpmath.exp(-2 * x * c)
            - 2 * y * mpmath.exp(x * c) - 2 * y * mpmath.exp(-x * c) + 2 * y * y
        )

    def error_density(d):
        c = mpmath.cos(d)
        return 8 * y4 * (1 - y * mpmath.exp(x * c) - y * mpmath.exp(-x * c) + y * y)

    n = INPUTS["n_slices"]
    w = mp.pi / n
    scale = 2 * n / mp.pi**2
    q_m0 = scale * mpmath.quad(lambda d: (w - d) * gain_density(d), [0, w])
    err_m0 = scale * mpmath.quad(lambda d: (w - d) * error_density(d), [0, w])
    return {
        "L_km": l_km,
        "Q_mu": mpmath.nstr(q_mu, 30),
        "E_mu": mpmath.nstr(err_mu / q_mu, 30),
        "Q_m0": mpmath.nstr(q_m0, 30),
        "E_m0": mpmath.nstr(err_m0 / q_m0, 30),
    }


def main():
    mpmath.mp.dps = DIGITS
    rows = [reference_row(l_km) for l_km in distances()]
    with open(OUT, "w", encoding="utf-8") as handle:
        json.dump({"digits": DIGITS, "inputs": INPUTS, "rows": rows}, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(rows)} rows to {OUT}")


if __name__ == "__main__":
    main()
