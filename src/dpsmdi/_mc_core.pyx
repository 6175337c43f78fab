# cython: boundscheck=False, wraparound=False, cdivision=True, language_level=3
"""Compiled per-trial kernel for the Monte Carlo backend.

Must tally bit-for-bit the same as _mc_fallback.run_kernel: the same
counter-based random stream and the same tables. Here a unit draw
k * 2**-53 is compared with each probability p; the fallback compares
the integer k with ceil(p * 2**53), which gives the same answer for
every k, and counts packed pattern keys instead of scanning a row.
"""

from libc.stdint cimport int8_t, int64_t, uint64_t

cdef double _INV_2_53 = 1.1102230246251565e-16  # 2**-53

cdef uint64_t _GOLDEN = 0x9E3779B97F4A7C15
cdef uint64_t _MIX1 = 0xBF58476D1CE4E5B9
cdef uint64_t _MIX2 = 0x94D049BB133111EB


cdef inline uint64_t raw_draw(uint64_t seed, uint64_t counter) nogil:
    cdef uint64_t z = seed + (counter + 1) * _GOLDEN
    z = (z ^ (z >> 30)) * _MIX1
    z = (z ^ (z >> 27)) * _MIX2
    return z ^ (z >> 31)


cdef inline double unit_draw(uint64_t seed, uint64_t counter) nogil:
    return <double>(raw_draw(seed, counter) >> 11) * _INV_2_53


def run_kernel(
    uint64_t seed,
    uint64_t start_trial,
    uint64_t n_trials,
    double eta_a,
    double eta_b,
    double p_dark,
    double e_d,
    double[:, :, ::1] outcome_cum,
    int8_t[::1] action,
    int8_t[:, ::1] base_error,
    int64_t[::1] mask_counts,
):
    """Tally one contiguous trial range; returns (keeps, errors)."""
    cdef uint64_t i, base
    cdef int s, case_idx, mask, j, err
    cdef double u
    cdef int64_t keep = 0
    cdef int64_t errors = 0
    with nogil:
        for i in range(n_trials):
            base = (start_trial + i) * 11

            s = <int>(raw_draw(seed, base) >> 60)
            case_idx = 0
            if unit_draw(seed, base + 1) < eta_a:
                case_idx += 2
            if unit_draw(seed, base + 2) < eta_b:
                case_idx += 1

            u = unit_draw(seed, base + 3)
            mask = 0
            while u >= outcome_cum[s, case_idx, mask]:
                mask += 1

            for j in range(6):
                if unit_draw(seed, base + 4 + j) < p_dark:
                    mask |= 1 << j

            if action[mask] == 0:
                keep += 1
                err = base_error[s, mask]
                if unit_draw(seed, base + 10) < e_d:
                    err ^= 1
                errors += err
            mask_counts[mask] += 1
    return keep, errors
