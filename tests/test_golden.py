"""Golden reports: the sha256 of every report file of the standard suites.

Each configuration runs in-process into a fresh --out directory.  Reports
embed the run configuration but not the output path, so their bytes depend
on the configuration alone; the digests were recorded before the suites
moved to the shared cell table and are the same under PYTHONHASHSEED 1, 2
and 3.  The three theorem CSV digests were re-recorded when CSV fields
holding a comma (the theorem family's names) became quoted, and the oracles
digest when its rows lost the "exact" key (the brute-force oracle returns
an exact value or raises).  The oracles digests at p = 3 and p = 13 were
recorded before the tree count moved to int coordinates, and the germs
digest when the suite was added.  The germs digests at p = 3 and p = 13
were recorded before germ tables became plain dicts and extraction's int
solve folded into RowReduction.solve.  The nilpotent and orbital digests
were recorded before integral exact values became ints; the last orbital
one keeps non-integral entries and an off-base vertex covered.  A change to
any exact value, row order, verdict or exit code shows up here as a changed
digest.
"""

import contextlib
import hashlib
import io

import pytest

from germlab import cli

GOLDEN = {
    ("verify", "claim", "--r", "0"): (0, {
        "claim-r0.csv": "a418e8440c299d4e8806a0a97f212c0c9ffc01ff28cfcbda146194541398bd25",
        "claim-r0.json": "90a7d0375482dca4a613268ca495cac5a8306dc246b014ec590b7a73e4d3d7b3"}),
    ("verify", "claim", "--r", "1"): (1, {
        "claim-r1.csv": "95ea0fb35bc84e20acc6da7e7033257698af52c1c22f5cbbabd84a58cb1bfdb7",
        "claim-r1.json": "dc2db8404ea018da602c6699aed76fc0c1bba4780ec1a8c16625de863f10c539"}),
    ("verify", "theorem", "--r", "0"): (0, {
        "theorem-r0.csv": "0dc0b6f82d79303d563152c5878657fbb2b8a9fedd62f748c6d8f91763cb2590",
        "theorem-r0.json": "3afcb30113b8ab0a596b64e7a91669fe5931a89b395b81ecca1dce586af3df28"}),
    ("verify", "theorem", "--r", "1"): (1, {
        "theorem-r1.csv": "6d8a9409e81dc88cdfeb5040717f424a2ecefb52eba62f3880be57674088d4e3",
        "theorem-r1.json": "af2e73cee663fdb2ed5ccb464b253685b7fc469c73cb90daaad5473ca1bda7f5"}),
    ("verify", "germs"): (0, {
        "germs.json": "a9b5b6ea0516796c1aaf97ccffd4d77493a2331e47e00087f9c4bedd4e69a42b"}),
    ("verify", "oracles"): (0, {
        "oracles.json": "a6f3824bdbd71be2318aeb5d9cb03ef3bf744b83d251fe607933a45a14674c2a"}),
    # the smallest tree, where the split apartment window sits nearest the
    # ball's edge, and the largest prime the CI runs
    ("--p", "3", "verify", "oracles"): (0, {
        "oracles.json": "8415ca74fce0cf70660711c251a162297827f80b185ad6c325a8f88d702c3efc"}),
    ("--p", "13", "verify", "oracles"): (0, {
        "oracles.json": "2af707b2d168b13811451f41a115d19cca7636c5e2adb96b25ee2684ada50c58"}),
    # the closed form against extraction at the primes the CI runs it at
    ("--p", "3", "verify", "germs"): (0, {
        "germs.json": "2c2767d93bddef831059fcc3fb8331b081fddd6c0d83f2fc31bf484844627bc9"}),
    ("--p", "13", "verify", "germs"): (0, {
        "germs.json": "ca7cb47a436aac85fbd7d55440b1079ea880f74b6e977c18b0feef1c5a90badc"}),
    ("--p", "7", "verify", "theorem", "--r", "0"): (0, {
        "theorem-r0.csv": "af3575e84a2395b9114d4b03d06a7f0d4e181dca60d8dcc2a2b52617e913bc7d",
        "theorem-r0.json": "b7ae31ece787eab7f9311df496efa4dd9fbb4c77024f7c03403898f6585a049f"}),
    # the two commands no suite runs: a dilation and the five nilpotent
    # integrals, and ss_orbital on cells off the base vertex
    ("nilpotent", "--f", "nil:eps:2"): (0, {
        "nilpotent.json": "ce9bf7d93bb5c0f215b071fe84ae9e7854ec70282a01e0b8e1217da2fc4b4c31"}),
    ("orbital", "--X", "[[0,1],[10,0]]", "--f", "mp:(1,0):1"): (0, {
        "orbital.json": "09e3251711255e3e94888a9363fb864c7b4464632d16b871dcb3637beb0fa7e8"}),
    ("orbital", "--X", "[[1/3,2],[5/7,-1/3]]", "--f", "mp:(2,1/5):1"): (0, {
        "orbital.json": "cda5b0bd6ef6cc2250d53057a870e9f42e3f9a40487dbb33ffc8a42f9360f75f"}),
}


@pytest.mark.parametrize("argv", list(GOLDEN),
                         ids=lambda argv: "_".join(a.lstrip("-") for a in argv))
def test_report_files_match_their_golden_digests(argv, tmp_path):
    code_want, files_want = GOLDEN[argv]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv) + ["--out", str(tmp_path)])
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.iterdir())}
    assert (code, got) == (code_want, files_want)
