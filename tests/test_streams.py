"""Canaries for the numpy ``Generator`` methods that paclab draws from.

NumPy's random policy (NEP 19) keeps bit-generator streams stable across
versions but lets ``Generator`` methods change their algorithms.  Each
method src calls draws here at a fixed seed and fixed parameters, one case
per algorithm branch, and the sha256 of its draws is compared with the
table below.  A mismatch names the method and the numpy version: the
golden outputs that depend on that method move for that reason alone, not
because paclab changed.  Two more checks pin what paclab assumes of the
calls themselves: slices of one call draw what the call draws, and
``random`` is a fixed map of the bit generator's raw words.
"""

import hashlib

import numpy as np

CANARIES = {
    # learner._hitting_times: inversion below n*p = 30, BTPE above.
    "binomial, n*p < 30": lambda rng: rng.binomial(20, 0.5, size=1000),
    "binomial, n*p >= 30": lambda rng: rng.binomial(
        [1000, 10 ** 6], [0.3, 0.5], size=(500, 2)),
    # learner._hitting_times: search above p = 1/3, inversion below.
    "geometric": lambda rng: rng.geometric([0.5, 0.01, 1e-9], size=(300, 3)),
    "random": lambda rng: rng.random(1000),
    # UniformMeasure.sample.
    "uniform": lambda rng: rng.uniform(0.0, 6.283185307179586, size=1000),
    # bounds.hamming_packing, CantorMeasure.sample.
    "integers, uint8": lambda rng: rng.integers(0, 2, size=1000,
                                                dtype=np.uint8),
    "integers, int64": lambda rng: rng.integers(0, 2, size=1000),
    # learner._atomic_census.
    "multinomial": lambda rng: np.array([rng.multinomial(
        10 ** 4, [0.1, 0.2, 0.3, 0.4]) for _ in range(50)]),
    # AtomicMeasure.sample.
    "choice with p": lambda rng: rng.choice(4, 1000, p=[0.1, 0.2, 0.3, 0.4]),
}

SEED = [2024, 12]
SHA256 = {
    "binomial, n*p < 30":
        "1ced868303eacc61cf1672a56ed6206a0fa45d455792e590f3b8aa27132d627d",
    "binomial, n*p >= 30":
        "270da31dd12520659ec2240d80bccfe71931587b9441a93f2d58a3ed8860a783",
    "geometric":
        "e6aaa9d1033cd1800f2a60b4665e6183de363c1d6c39ecf399ba1fa0007a5b8f",
    "random":
        "7640b4bbb82c4ac9b1e62dddcd52c089498da3dd1aea1b8dc1a00e6041b9fc4b",
    "uniform":
        "b895db89a2b349276efce65b62d75e3d9761e993d4daa20aca90bea0c028a11c",
    "integers, uint8":
        "f5cbbf2c84746e9e32cf6975ef52e2f046b9c9006e33ef82694404f51b54b9d7",
    "integers, int64":
        "2c2f097b4c6240c8162356b3f6b48b032f47336e2c6ffd1358b0f2068c8a271f",
    "multinomial":
        "c0a8891340be8317e07be0338419c4c2fd837771136eba704d572c66bd52445c",
    "choice with p":
        "a004c508a79511d5d1183044d7cdd47234cd669863f5f2e02e161c77e32edc8b",
}


def _digest(draws):
    draws = np.ascontiguousarray(draws)
    return hashlib.sha256(draws.dtype.str.encode()
                          + draws.tobytes()).hexdigest()


def test_generator_methods_draw_their_pinned_streams():
    moved = [name for name, draw in CANARIES.items()
             if _digest(draw(np.random.default_rng(SEED))) != SHA256[name]]
    assert not moved, (
        f"numpy {np.__version__} changed Generator draws: {moved}; the "
        "golden outputs that depend on these methods move for that reason "
        "alone")



# learner._hitting_times draws a window's uniforms in one call and its gaps
# one chunk of trials at a time: a call over consecutive slices must draw
# what one call draws.  Both geometric branches (p above and below 1/3).
SPLIT_CALLS = {
    "geometric": (lambda rng, p: rng.geometric(p),
                  np.tile([0.9, 0.5, 1 / 3, 0.2, 0.01, 1e-9], 500)),
    "random": (lambda rng, p: rng.random(len(p)), np.zeros(3000)),
}


def test_generator_methods_draw_one_call_in_slices():
    cuts = [0, 1, 2, 9, 700, 701, 2048, 3000]
    moved = []
    for name, (draw, params) in SPLIT_CALLS.items():
        whole = draw(np.random.default_rng(SEED), params)
        rng = np.random.default_rng(SEED)
        parts = [draw(rng, params[a:b]) for a, b in zip(cuts, cuts[1:])]
        if not np.array_equal(whole, np.concatenate(parts)):
            moved.append(name)
    assert not moved, (
        f"numpy {np.__version__}: {moved} over consecutive slices differ "
        "from one call; the estimator's chunks would move its stream")


def test_random_is_the_top_53_bits_of_each_raw_word():
    # Generator.random maps each 64-bit word w of the bit generator to
    # (w >> 11) * 2**-53, one word per draw.
    count = 100_000
    draws = np.random.default_rng(SEED).random(count)
    words = np.random.PCG64(SEED).random_raw(count)
    assert np.array_equal(draws, (words >> np.uint64(11)) * 2.0 ** -53), (
        f"numpy {np.__version__} changed Generator.random's word mapping")

if __name__ == "__main__":
    for name, draw in CANARIES.items():
        digest = _digest(draw(np.random.default_rng(SEED)))
        print(f'    "{name}":\n        "{digest}",')
