"""Three lengths of one geodesic, and the constant that links them.

Walks through a single worked example (the word 3,2,3,4), showing the
matrix, its fixed points, and the geometric length computed two ways;
then estimates the ergodic constant c-hat governing l_g / l_p.
"""

import math

from modwind import cfcore, invariants, necklace


def main():
    word = (3, 2, 3, 4)
    m = cfcore.matrix_of_word(word)
    print(f"word {word}")
    print(f"matrix [[{m.a}, {m.b}], [{m.c}, {m.d}]], trace {m.trace}, det {m.det}")

    w, wp = cfcore.fixed_points(m)
    print(f"fixed points ({w.p} + {w.r}*sqrt({w.D}))/{w.q} "
          f"and ({wp.p} + {wp.r}*sqrt({wp.D}))/{wp.q}")
    print(f"attracting value {float(w):.12f}")

    rec = invariants.build_record(necklace.Necklace(word), cross_check=True)
    print(f"period length  l_p = {rec.lp}")
    print(f"word length    l_w = {rec.lw}")
    print(f"geom length    l_g = {rec.lg:.12f}")
    print(f"   (= 2 log lambda = "
          f"{2 * math.log(float(cfcore.eigenvalue_max(m))):.12f})")
    print(f"winding        psi = {rec.psi}")
    print()

    # l_g / l_p tends to a constant; the truncated averages c_k bracket it
    for A in (2, 5):
        est = invariants.chat_estimate(A, 1e-3)
        lo, hi = est.chat_interval
        print(f"A = {A}: c_{est.k} = {est.c_k:.9f}, "
              f"c-hat in ({lo:.6f}, {hi:.6f})")
        print(f"       sigma_g^2 = sigma_p^2 / c-hat = {est.sigma_g2:.6f}")


if __name__ == "__main__":
    main()
