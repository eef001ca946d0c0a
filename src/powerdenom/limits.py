"""Upper bounds on the inputs of the command line and the sweeps.

``cli`` and ``verify`` both read them from here, so each has one
definition; a value past its bound is refused with ``ValueError`` before
any Bernoulli number or sieve is computed.  ``cli`` re-exports them.
"""

# The largest index n that ``powersum --n``, ``run_bench`` and the max_n of
# a grid sweep (T2, T3, L1, AM) accept.  These fill the Bernoulli table to
# about n, at a cost that grows faster than n^2: the test suite checks the
# oracles at every n up to here, and ``powersum --m 3 --r 1 --n 1500`` takes
# 1.8-2.0 s and 48 MB in a fresh interpreter (Python 3.11, 2 CPUs).
MAX_TABLE_N = 1500

# The largest m_max and r_max that a grid sweep accepts.  Each chunk's cache
# keeps one row per distinct r/m, so time and memory grow with both.  At
# each bound, with the other bounds at their defaults and ``--jobs 1``
# (Python 3.11, 2 CPUs): at m = 300 the slowest sweep, L1, takes 10.6 s and
# the largest, T2, peaks at 22 MB; at r = 100 T3 is both, 24 s and 45 MB.
MAX_GRID_M = 300
MAX_GRID_R = 100

# The most cases m_max * (r_max + 1) * max_n that a grid sweep accepts, its
# axes each within their own bounds.  With ``--jobs 1`` (Python 3.11, 2
# CPUs): AM at m = 300 with its other defaults, 984,000 cases at n <= 80,
# takes 21 s; T3 at r = 100, 363,600 cases, 22 s and 44 MB; the largest
# default grid, AM's 131,200 cases, 2.6 s.  The cost of a case grows with n
# (AM at n <= 300, 492,000 cases, takes 64 s; T3 at n <= 300, m <= 60,
# r <= 10, 198,000 cases, ran past 120 s), so this bound caps the size of a
# grid, not its time at large n.  Every axis at its bound, 45.4 million
# cases, is refused.
MAX_GRID_CASES = 10**6

# The largest index n that ``seq --to`` and the max_n of a sweep over n
# alone (T1, C2, T4, T5) accept.  The bound comes from D, DD and DB, the ids
# that use the sieve: D at n needs a flag table of n + 1 bytes and DD one of
# about n/2, so D(10**8) peaks at about 130 MB.  DDQ and DBQ need no sieve
# (one trial division of n + 1), but the bound stays one for all ids.  Below
# it, DD and DB outgrow Python's int-to-str digit limit (4300 digits by
# default; DD(10**8 - 1) has 6839): ``seq`` then stops with exit 2 at the
# first n it cannot print, naming the id, n and the limit.
MAX_SEQ_N = 10**8

# The largest term count x that ``powersum --x`` accepts.  The brute-force
# cross-check sums x terms: at x = 10**4 it takes about 2 ms at n = 1 and
# 0.8 s at n = MAX_TABLE_N, where the whole command takes about 2 s.
MAX_POWERSUM_X = 10**4
