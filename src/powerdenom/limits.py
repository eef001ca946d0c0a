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

# The most repetitions ``run_bench`` accepts.  Each repetition times both
# paths over the whole span from a fresh cache and empty memos, so time
# grows with it at every span: ``bench DB 1..1500`` takes 1.3 s at
# ``--reps 1``, 3.6 s at 5 and 12.8 s at 20, and DD, DDQ and DBQ over the
# same span 12.8-13.0 s at 20, start-up and the check before timing
# included (Python 3.11, 2 CPUs).  A span that ends at 1500 costs about as
# much wherever it starts, since the oracle fills every index below lo:
# ``bench DB 1500..1500 --reps 20`` takes 13.3-14.5 s.  So the largest span
# stays under about 30 s.
MAX_BENCH_REPS = 20

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
# default grid, AM's 131,200 cases, 2.6 s.  Every axis at its bound, 45.4
# million cases, is refused.  The cost of a case grows with n, so this
# bound caps the size of a grid; MAX_GRID_WORK caps its time at large n.
MAX_GRID_CASES = 10**6

# The most work m_max * (r_max + 1) * max_n**3 that a grid sweep accepts.
# A case at n builds a polynomial of degree n with coefficients of about n
# digits, so its cost grows about as n^2 and a whole axis 1..n about as n^3.
# With ``--jobs 1`` (Python 3.11, 2 CPUs), T3 at 7.4e8 (n <= 150, m <= 20,
# r <= 10) takes 6.7 s, at 3.0e9 (n <= 300, m <= 10, r <= 10) 21.5 s, and
# at n = 1500 alone, 3.4e9, 24.9 s (T2 23.9 s, AM 9.7 s).  Just inside the
# bound, at 3.9e9 (n <= 300, m <= 12, r <= 11), T2 takes 37.7 s, T3 33.6 s
# and L1 6.0 s.  Refused: T3 at n <= 300, m <= 60, r <= 10 (1.8e10), which
# ran past 120 s, and AM at n <= 300 with its defaults (4.4e10), 64 s.
# Every default grid (AM's is the largest, 8.4e8) and n = MAX_TABLE_N with
# m = 1 and r = 0 stay inside; at small n the case bound is the tighter.
MAX_GRID_WORK = 4 * 10**9

# The largest index n that ``seq --to`` and the max_n of a sweep over n
# alone (T1, C2, T4, T5) accept.  The bound comes from D, DD and DB, the ids
# that use the sieve: one term of D, DD or DB at n needs a flag table of
# about n/2 bytes (D tests n + 1 through ``digits.factorize``, and DB reads
# D first, whose table holds DD's), a DD range one to hi/2 + 1 and a D
# range one to hi + 1; ``seq`` fills a segment before it reads any term per
# index, so a query builds one table that large.  One ``seq D`` term at
# 99999998 takes about 0.3 s and 71 MB in a fresh interpreter, where a
# table to n + 1 took about 1.0 s and 128 MB (Python 3.11, 2 CPUs).  DDQ and DBQ need only the primes up to
# sqrt(n + 1), at most 10**4: one index factors n + 1 by them (``digits.factorize``, a
# flag table of at most 10**4 bytes), and a range reads them in its
# segment scan over 4095 values of n.  One ``seq DDQ`` or ``seq DBQ`` term
# near 10**8 takes 0.06-0.09 s and 14.4 MB in a fresh interpreter,
# start-up included (Python 3.11, 2 CPUs).  The bound stays one for all
# ids.  Below
# it, DD and DB outgrow Python's int-to-str digit limit (4300 digits by
# default; DD(10**8 - 1) has 6839): ``seq`` then stops with exit 2 at the
# first n it cannot print, naming the id, n and the limit, after the scan
# of the segment that holds n.
MAX_SEQ_N = 10**8

# The largest term count x that ``powersum --x`` accepts.  The brute-force
# cross-check sums x terms: at x = 10**4 it takes about 2 ms at n = 1 and
# 0.8 s at n = MAX_TABLE_N, where the whole command takes about 2 s.
MAX_POWERSUM_X = 10**4
