"""Frozen reference data for the test suite.

Every literal below was entered by hand from independently checked
sources. Tests compare computed values against these lists, never the
other way around; regenerating them programmatically would defeat their
purpose as oracles.

Fraction terms are written (k, v, D) with D as ascending coefficients,
matching the term layout used by the library: the head renders as
v*q^k/D and each later term as -v*q^(k_prev+k+2)/D.
"""

# --- Taylor coefficients of the metallic series -------------------------

TAYLOR = {
    1: [1, 0, 1, -1, 2, -4, 8, -17, 37, -82, 185, -423, 978, -2283, 5373,
        -12735],
    2: [1, 1, 0, 0, 1, 0, -2, 1, 4, -5, -7, 18, 7, -55, 18, 146, -155,
        -322, 692, 476, -2446, 307, 7322],
    5: [1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 1, 0, -1, -1, 0, 0, 3, 3, -2, -7,
        -4, -1, 10, 21, 9, -30, -44, -28, 27, 115],
    10: [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
         0, -1, -1, 0, 1, 1, 0, -1, -1, -1, 3, 4, -1, -7, -6, 3, 11, 8],
}

# --- Periodic fractions for n = 1, 2, 5 ----------------------------------

FRACTION_HEAD = {
    1: (0, 1, [1]),
    2: (0, 1, [1, -1]),
    5: (0, 1, [1, -1]),
}

FRACTION_CYCLE = {
    1: [
        (0, 1, [1, 1]),
        (1, -1, [1, 1, -1]),
        (0, -1, [1, 1]),
    ],
    2: [
        (0, -1, [1, 1]),
        (0, -1, [1]),
        (0, -1, [1]),
        (1, 1, [1, 0, 2]),
        (2, -1, [1, 0, 2, -1]),
        (1, -1, [1, 0, 2]),
        (0, 1, [1]),
        (0, -1, [1]),
    ],
    5: [
        (3, -1, [1, 1, 1, 1, 1]),
        (0, -1, [1]),
        (0, -1, [1, -1]),
        (2, -1, [1, 1, 1, 1]),
        (1, -1, [1, 0, 1]),
        (0, -1, [1, -1]),
        (1, -1, [1, 1, 1]),
        (2, -1, [1, 0, 1, 1]),
        (0, -1, [1, -1]),
        (0, -1, [1, 1]),
        (3, -1, [1, 0, 1, 1, 1]),
        (0, -1, [1]),
        (4, 1, [1, 0, 1, 1, 1, 2]),
        (5, -1, [1, 0, 1, 1, 1, 2, -1]),
        (4, -1, [1, 0, 1, 1, 1, 2]),
        (0, 1, [1]),
        (3, -1, [1, 0, 1, 1, 1]),
        (0, -1, [1, 1]),
        (0, -1, [1, -1]),
        (2, -1, [1, 0, 1, 1]),
        (1, -1, [1, 1, 1]),
        (0, -1, [1, -1]),
        (1, -1, [1, 0, 1]),
        (2, -1, [1, 1, 1, 1]),
        (0, -1, [1, -1]),
        (0, -1, [1]),
    ],
}

# --- Step trace for n = 5 -------------------------------------------------
# Rows (k_j, a_j, D_j) for j = 0..27; note a = -v. Row 27 must equal row 1
# again (the iteration re-enters the cycle's first state).

STEP_ROWS_N5 = [(0, -1, [1, -1])] + [
    (k, -v, d) for (k, v, d) in FRACTION_CYCLE[5]
] + [(3, 1, [1, 1, 1, 1, 1])]

# --- Hankel determinant sequences ----------------------------------------
# One (anti)period each; the sign tells how the next period continues.

DELTA0_PERIOD = {
    1: [1, 1, 1, 0],
    2: [1, 1, -1, -1, 1, 0, -1, 0, 0, 1, 0, -1],
    3: [1, 1, 0, -1, -1, 1, 1, 0, -1, -1, 0, 0, 1, 0, 0, 0, 1, 0, 0, -1,
        -1, 0, 1, 1],
    4: [1, 1, 0, 0, 1, 1, -1, 0, 1, 0, -1, -1, 1, 0, 0, -1, 1, 0, 0, 0,
        1, 0, 0, 0, 0, 1, 0, 0, 0, 1, -1, 0, 0, 1, -1, -1, 0, 1, 0, -1],
    5: [1, 1, 0, 0, 0, 1, 1, -1, 0, 0, 1, 0, -1, -1, 0, 1, 0, 0, -1, 1,
        1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0,
        -1, -1, 0, 0, 0, -1, -1, 1, 0, 0, -1, 0, 1, 1, 0, -1, 0, 0, 1],
}

DELTA0_NEXT_PERIOD_SIGN = {1: -1, 2: 1, 3: -1, 4: 1, 5: -1}

# Shifted rows for n = 1 (first 8 terms each; the shift-4 row grows).

SHIFTED_ROWS_N1 = {
    1: [1, 0, -1, 1, -1, 0, 1, -1],
    2: [1, 1, 1, 0, -1, -1, -1, 0],
    3: [1, -1, 0, 0, -1, 1, 0, 0],
}

SHIFT4_ROW_N1 = [1, 2, 0, -2, -3, -4, 0, 4, 5, 6, 0, -6, -7, -8, 0, 8]

# --- Support data for n = 5 -----------------------------------------------

SUPPORT_SETS_N5 = (
    frozenset({0, 6, 12, 18, 24, 36, 46, 51, 56}),
    frozenset({1, 7, 13, 19, 25, 41, 47, 53, 59}),
    frozenset({5, 10, 15, 20, 30, 42, 48, 54, 60}),
)

K_ARRAY_N5_PREFIX = [0, 3, 0, 0, 2, 1, 0, 1, 2, 0, 0, 3, 0, 4, 5, 4, 0, 3]

# --- Contiguity instances for n = 5 ---------------------------------------
# (ell, index shift, sign rule) with sign rule "alt" meaning (-1)^j,
# "alt1" meaning (-1)^(j+1), "+" and "-" constant signs:
# the shift-ell row equals sign * (base row at j + shift).

CONTIGUITY_INSTANCES_N5 = [
    (1, 6, "alt"),
    (2, 12, "-"),
    (3, 18, "alt1"),
    (4, 24, "+"),
    (5, 30, "alt"),
    (6, 36, "-"),
]

# --- Baseline sequences ----------------------------------------------------

CATALAN_PREFIX = [1, 1, 2, 5, 14, 42, 132]
MOTZKIN_PREFIX = [1, 1, 2, 4, 9, 21, 51]

CATALAN_SHIFT2_PREFIX = [1, 2, 3, 4]
MOTZKIN_SHIFT1_PERIOD = [1, 1, 0, -1, -1, 0]
MOTZKIN_SHIFT2_PREFIX = [1, 2, 2, 3, 4, 4, 5, 6, 6, 7, 8, 8]
MOTZKIN_SHIFT3_PREFIX = [1, 4, 3, -6, -16, -10, 15, 36, 21, -28, -64,
                         -36, 45]

# --- CLI stdout bytes -------------------------------------------------------
# (command line, exit code, SHA-256 of stdout). Unlike the literals above
# these were not entered by hand: they pin the exact bytes of a release
# whose outputs were checked, so that any rendering or arithmetic change
# that alters a single byte of a subcommand's output shows up in Tier-1.

CLI_DIGESTS = [
    ("series --n 3 --prec 20 --format text", 0, "4fd2d48b7314fb211ffa451997dbb7a82c7e06c4ddb32bdf9b927aea02bbd377"),
    ("series --n 3 --prec 20 --format json", 0, "c18e7573aa92d7014a161565107750905629edb09db62f1a3996c00386a10778"),
    ("series --n 3 --prec 20 --format csv", 0, "0ca2a1b5c2da90f69cbeb8d9e26a5482a23a3c4f9b1488506a3f124812165ea2"),
    ("hfrac --n 3 --ell 2 --format text", 0, "fd7b6541f45de58e99d4edccba3ae7f17909fd519ef7473a6681afe5bd862256"),
    ("hfrac --n 3 --ell 4 --format json", 0, "d5e0c0e07e5d0eaee9531f589924a79d4bd6b0b9e846e9b2b855675d75ec722b"),
    ("hfrac --n 2 --ell 0 --format csv", 0, "5a1ff3cb5d25d2496f17df03cd65437d1448ac4441b166a89b6efcdd30181afd"),
    ("hankel --n 2 --ell 1 --horizon 30 --source both --format text", 0, "786544075c87b0bf73aa52f3671e2691a2dd7acba192c357e0ed1c790f8f722c"),
    ("hankel --n 3 --ell 2 --horizon 20 --source formula --format json", 0, "654ebc901a4d7cee41353a558001a8493ebd53cbb476ecb361f1b1c1a466854a"),
    ("hankel --n 2 --ell 5 --horizon 12 --source brute --format csv", 0, "e33bca6daabdf531a0392f4b7c3fd08275edb16f11824b478af40206a2df7985"),
    ("verify --suite thmC --n 1..3 --format text", 0, "6b6e7d3f2f945feabda472a2f70e818249b55ef463dcf7cb51442ec304573a5a"),
    ("verify --suite thm51 --n 3 --format json", 0, "86c89afecfc4caafa23b5d7ac408507bc206827a1f60b01215613523cc3d9305"),
    ("verify --suite baselines --n 1 --format csv", 0, "1e832d9e49ad2e3be93552166525a4a50f4549d3df70001eb39d6148d2ced779"),
    ("modp --n 3 --ell 1 --p 10000000000037 --format text", 0, "d03e89251cb8fec7e8dcb90933dd133c4d7850e4fbf0a79be3252ce45cd6be0f"),
    ("modp --n 2 --ell 0 --p 7 --format json", 0, "575f4da2ec9864ce2c1eb703fa09ddf68779d25fac4accb8dfa5848a07589514"),
    ("modp --n 3 --ell 5 --p 3 --format csv", 0, "da7467ecd3de1bdddc025add4a59efb0906d7dbcdf85315e9ff24bef1d3be736"),
    ("scan --n 2 --format text", 0, "bfc9bd65d929f6e470911fb1c49ec3aa8e111823112d65031705e220f76c2399"),
    ("scan --n 2 --ell 5 --horizon 30 --format json", 0, "5f1997c5299518e5d44b580884179d361de54b9d6a22bca26f3a5dc391cb6840"),
    ("scan --n 3 --horizon 20 --format csv", 0, "9355ac50dd483c45d68aa569175e3d4b6fdd4fba74971420b66181103ff7e888"),
]

# Branches no entry above reaches: a failing check in each subcommand
# that has one, with the formula route corrupted as in
# test_cli.corrupt_formula_route (the value at j = 3 of every ell = 1
# window is raised by one), and an inconclusive prime-field run. The CSV
# of a failing `hankel` or `modp` ends with the failed check's text line,
# as one quoted cell.

CLI_FAILING_DIGESTS = [
    ("hankel --n 2 --ell 1 --horizon 12 --source both --format text", 1, "42dcfbf39f56d5299c4ef248b3ccc931d6ff58150b14aca6de1a6c1890b0293b"),
    ("hankel --n 2 --ell 1 --horizon 12 --source both --format json", 1, "5b63b58f2af99929faddf73433de6d53b3fb7893e76a8823845aa998b1964921"),
    ("hankel --n 2 --ell 1 --horizon 12 --source both --format csv", 1, "5c947cd41dd37b9c0ebaa34f55f7adea860de9d1eaa52f3fb09344738522cf87"),
    ("modp --n 2 --ell 1 --p 7 --format text", 1, "5c0c66b4471481921f90d2a483127d885aff3f3bae5ed8ca8784e06e154cef60"),
    ("modp --n 2 --ell 1 --p 7 --format json", 1, "0c8e8fa3c61e43575b6eb01a2c27d38f1d4a25c2e080aec7a1cfe8547e99c67f"),
    ("modp --n 2 --ell 1 --p 7 --format csv", 1, "f1b6015f9dc845338a7f112ec9a2c393fca1a18eba0c567ad7f9bbc987489a7a"),
    ("verify --suite thmB --n 1..2 --format text", 1, "9f3cb92f3de6a4ba9951f4b1a0c985f9d8c5afae3223cc48656c1e5032092537"),
    ("verify --suite thmB --n 1..2 --format json", 1, "3a86db53d2fbb0359512877a8e6e1f1217c41ad88eb2aeb654bb5aa4f0abe4e0"),
    ("verify --suite thmB --n 1..2 --format csv", 1, "bb655dabd35a82e47d3819716768cbbefb6f777a063503ea0d70491c77e21e9d"),
]

CLI_INCONCLUSIVE_DIGESTS = [
    ("modp --n 3 --ell 0 --p 7 --max-steps 1 --format text", 0, "1e4ca1df19cf1e0bc20158d5415ba9e659c544c407c7e22f531467e21cdbcea4"),
    ("modp --n 3 --ell 0 --p 7 --max-steps 1 --format json", 0, "49838ca03213c1c47c2d57b4adb5d0218cfd4d0e78d44128f257a784f72ae2f5"),
    ("modp --n 3 --ell 0 --p 7 --max-steps 1 --format csv", 0, "b85ace7718674b090442d2d9946137e147132c49352f829ecbf6b91de28a8298"),
]

# --- Suite verdicts -----------------------------------------------------------
# SHA-256 of repr(tuples), where tuples lists (name, passed, counterexample,
# detail) for each of the 362 checks of run_suite("all", range(1, 11)), in
# order. Like the CLI digests, this pins a checked release rather than a
# hand-entered value: any change to a verdict, a first counterexample or a
# detail string of any check shows up in Tier-1.

SUITE_ALL_1_10_COUNT = 362
SUITE_ALL_1_10_SHA256 = "b74fdced76fc66455c78169401e6617beedcfe3ea200eadb1bbae89de71d341e"
