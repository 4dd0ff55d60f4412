"""Golden command lines: for every README example, every --help screen and
the bad-input paths, the exit code, the sha256 of stdout and the stderr line
that carries "error:" (None when there is none).  Help screens are argparse's
layout at 80 columns, which differs between Python versions, so they are
pinned for the version they were recorded with.

The rows keep the values recorded before the CLI became one command table;
only the rows under a bugfix note differ from them."""

import hashlib
import sys

import pytest

from grothcrystal.cli import main

HELP_RECORDED_WITH = (3, 11)
EMPTY = hashlib.sha256(b"").hexdigest()

ROWS = [
    # README examples and other ordinary runs
    (('groth', 'eval', '--lam', '2,1', '--z', '1,2,3', '--beta', '0'), 0, '304f08beda120260f3b22d3746be91f60e2b6240496f2fd05c53770801c33174', None),
    (('groth', 'skew', '--mu', '3,1', '--lam', '', '--z', '2,3', '--beta', '1'), 0, '3e3bcf03319bbd3fa4aad2e11079ffab7c8b1985a98a263d7e945eb8ab35179d', None),
    # a six-variable chain sum, the same value as when it recursed over every chain
    (('groth', 'skew', '--mu', '5,4,3,2,1,0', '--lam', '', '--z', '2/3,3/5,4/7,5/9,6/11,7/13', '--beta', '1/2'), 0, '634b2185502d15a95a48edc7d7233d5d09d2dedbfb067e6e9f4ce01463a23ed7', None),
    (('groth', 'verify-cauchy', '--n', '2', '--width', '2', '--points', '3'), 0, '4cd6e54563f4dd2849781803a30506e79d090bfa799d2d26289493433f896003', None),
    (('groth', 'verify-sum', '--n', '2', '--width', '2', '--points', '3'), 0, '662b9f7fcefa1bbfd0b15ef5d976a646d79319614dfaeb3c38522f5f7db6579c', None),
    (('fv', 'wavefunction', '--sites', '5', '--x', '1,3', '--u', '2,3', '--beta', '-1'), 0, 'c45df445d5990792e55099b5f27b896610274fdbf00fd4d98085a5d9e6c36c26', None),
    (('fv', 'wavefunction', '--sites', '5', '--x', '1,3', '--u', '2,3', '--beta', '-1', '--dual'), 0, '22dcad315504a54eff83f3e839789b864c7f7f8036a62e5b50f10faa6425826b', None),
    (('pm', 'wavefunction', '--sites', '3', '--occ', '1,0,1', '--v', '2,3', '--beta', '1'), 0, '14e727c5d590d4059e9b83aed0e623852f1aee9afcc8e7c6cb432dbfcdad33a2', None),
    # one-state lookups at M = 12, recorded while they still built the sector
    (('fv', 'wavefunction', '--sites', '12', '--x', '2,4,6,8,10,12', '--u', '2,3,5,7,11,13', '--beta', '-1'), 0, '8b41bcff1c97aeb43334245f0caf7fa384915ecf82f267b3492db7acd25d0e84', None),
    (('fv', 'wavefunction', '--sites', '12', '--x', '2,4,6,8,10,12', '--u', '2,3,5,7,11,13', '--beta', '-1', '--dual'), 0, '6f3bed712f6b72372b0c37d9d072448a592c5b2441642ec03b51bf32c0dd9577', None),
    (('pm', 'scalar', '--sites', '2', '--u', '2', '--v', '3', '--beta', '1'), 0, '016551a629e15f4ec1771f7fd4748ac768afd0c01f7c77833cd0153e7d26dde6', None),
    (('pm', 'sum', '--sites', '2', '--v', '2', '--beta', '-1'), 0, '1492fd13e25aa10444fbf075eff20fdb1c8eca290bcb0dbc3dcb4aabd65f26b0', None),
    (('pm', 'bethe', '--sites', '3', '--beta', '-1'), 0, '70b90d8b1eca09c42690288fbca2b5d3226a0da3a5b25028faec351e66ebef47', None),
    # the float transfer matrix at a beta whose weight table has scale 2
    (('pm', 'bethe', '--sites', '4', '--beta', '1/2'), 0, '1614f4b6757da533cd67b8dd32d481252512538e6fd4e85ecfc52d5a621b9805', None),
    (('mc', 'zbox', '--n', '2', '--height', '2', '--q', '1/2', '--beta', '1'), 0, 'ee3ee78121b2ef7cab54baf101702ef6193bfcf412349e19b77b1aa1212379c2', None),
    (('mc', 'zbox', '--n', '1', '--height', '1', '--beta', '0', '--series', '4'), 0, '127d87b99cdc73894d14ff46fddab45f6f5a72c383c6e4a3cb70b44604155d92', None),
    (('mc', 'zbox', '--n', '3', '--height', '3', '--q', '3/2', '--beta=-1/2'), 0, '9f6916a6f36275e7a97609694a373c6ba6fb48e06168a027ee68a937a2bf73e7', None),
    # a 4 x 4 x 3 box, 24 696 plane partitions summed by class against the
    # determinant; recorded while the classes came from enumerate_boxed
    (('mc', 'zbox', '--n', '4', '--height', '3', '--q', '1/2', '--beta', '1'), 0, 'af6ceb2d9d0e8cdecf259c9ce9ff7888e2ef2081b5bddeb3553995a184a537df', None),
    # a 9 x 9 determinant at working order 73, recorded while every series
    # product was a schoolbook convolution
    (('mc', 'zbox', '--n', '9', '--height', '9', '--series', '9', '--beta=-2/3'), 0, '366087c9e99fe66d576467e17b22943e91012b257831d2c7bd198106bcd3ac98', None),
    (('mc', 'macmahon', '--beta', '-1', '--order', '7'), 0, '08fcb9351ab3e78bcd312301f3f0ffca7298c5ecdf91371c87f14ce24195ac84', None),
    (('mc', 'entropy', '--mu', '1', '--temps', '0.2,0.6,1.0', '--betas=-1,0,1'), 0, '58defe5a3c4065cc20b20e17318ee8bba23233e973bdcb062b4154aee9ae5b39', None),
    (('sv6', 'verify', '--params', '{"a1":"1","a2":"1","a3":"2","a4":"1","a5":"-1/2","a6":"-1/2","t":"1/2"}'), 0, 'e6522c4dea7a9ddf4a7982c5a6f77754b34e0a942c80c44ec4efbb10ae9b0522', None),
    (('fv', 'verify', '--suite', 'ybe'), 0, 'ab29b76f192428180f1a5355b1839e7ed271ce4ce4611c8929b6661d2f396f28', None),
    (('pm', 'verify', '--suite', 'scalar', '--scale', 'full'), 0, '98ce1f33b03358a7581c74c597bd144fbfea85ff2ead7cc9796d921ec61c5ac5', None),
    (('verify', 'all', '--scale', 'small'), 0, '288d8d344a193f7f6f7a8550b437d4af5c619c0ab6a43673c9c9e2914ac46982', None),
    (('--json', '--seed', '1', 'verify', 'all', '--scale', 'small'), 0, '65513ba76eb08ce49f20b78933797560939266428d326ed2682251434b1d6111', None),
    (('--json', 'mc', 'entropy', '--mu', '1', '--temps', '1.0', '--betas', '0'), 0, '64dfe47543f647136ed1593b202a0264c372bfd669071b7efd41eba702843ada', None),
    (('--seed', '9', 'sv6', 'verify'), 0, 'c8427e54e601a5785a64a9534c6d5e621e8014d4e109a34f53fca9a9768990ad', None),
    # the five-vertex Hamiltonian extraction at full scale, recorded while it
    # multiplied truncated series per vertex
    (('--seed', '1', 'fv', 'verify', '--suite', 'hamiltonian', '--scale', 'full'), 0, '471001f1f19d875ec93918099842844a76390049115dcab1432077f0723ad135', None),
    (('pm', 'verify', '--suite', 'thm52'), 0, '6291a193bee9c1005266cac71570190d191aed1e367d406e36bc59adb99c70e6', None),
    # bad input
    (('groth', 'eval', '--lam', '1,x', '--z', '1'), 2, EMPTY, "error: invalid literal for int() with base 10: 'x'"),
    (('mc', 'zbox', '--n', '2', '--height', '1', '--q', 'abc'), 2, EMPTY, "error: Invalid literal for Fraction: 'abc'"),
    # bugfix, a zero denominator: the message was "error: Fraction(1, 0)"
    (('pm', 'scalar', '--sites', '2', '--u', '2', '--v', '3', '--beta', '1/0'), 2, EMPTY, "error: bad rational '1/0': zero denominator"),
    (('groth', 'eval', '--lam', '1,2', '--z', '1,2', '--beta', '0'), 2, EMPTY, 'error: not weakly decreasing: (1, 2)'),
    (('mc', 'zbox', '--n', '2', '--height', '1'), 2, EMPTY, 'error: zbox needs either --q or --series'),
    (('verify', 'nosuch'), 2, EMPTY, "error: unknown suite 'nosuch'"),
    # bugfix, bad --params: a KeyError or TypeError traceback and exit 1 before
    (('sv6', 'verify', '--params', '{"a1":"1"}'), 2, EMPTY, "error: --params needs a string or number for 'a2'"),
    (('sv6', 'verify', '--params', '[1]'), 2, EMPTY, 'error: --params must be a JSON object, not list'),
    # bugfix, a JSON boolean in --params: true read as 1, exit 0
    (('sv6', 'verify', '--params', '{"a1":true,"a2":"1","a3":"2","a4":"1","a5":"-1/2","a6":"-1/2","t":"1/2"}'), 2, EMPTY, "error: --params needs a string or number for 'a1'"),
    # bugfix, a JSON number in --params: 0.1 read as its binary double,
    # 3602879701896397/36028797018963968, not 1/10
    (('sv6', 'verify', '--params', '{"a1":1,"a2":1,"a3":1,"a4":-0.1,"a5":1,"a6":-1,"t":0.1}'), 0, '977d5da94acf7db3bc4e24e84ad1d539c71830e1e31a434ad9c3fe8581d354b1', None),
    # bugfix, --q with --series: --q was ignored and the series printed, exit 0
    (('mc', 'zbox', '--n', '2', '--height', '1', '--q', '1/2', '--series', '3'), 2, EMPTY, 'error: zbox takes --q or --series, not both'),
    # bugfix, output before a failure: the CSV header was printed first
    (('mc', 'entropy', '--temps', '0.5', '--betas=-2'), 2, EMPTY, 'error: beta < -1 leaves the physical range'),
    # bugfix, a filter that keeps no case: "0 cases, 0 failures" and exit 0
    (('fv', 'verify', '--suite', 'nonsense'), 2, EMPTY, "error: no case of suite fv matches 'nonsense'"),
    # bugfix, a zero spectral parameter: the message was "error: Fraction(1, 0)"
    (('pm', 'sum', '--sites', '1', '--v', '0', '--beta', '1'), 2, EMPTY, 'error: v = 0 is a pole of the spectral map'),
    (('pm', 'scalar', '--sites', '2', '--u', '0', '--v', '3', '--beta', '1'), 2, EMPTY, 'error: v = 0 is a pole of the spectral map'),
    # bugfix, a negative series order: the message named a vanishing 1x1 block
    (('mc', 'zbox', '--n', '2', '--height', '2', '--series', '-1'), 2, EMPTY, 'error: order must be nonnegative'),
    # bugfix, a dual amplitude on a configuration off the chain: an IndexError
    # traceback and exit 1, or a message about a partition's width
    (('pm', 'wavefunction', '--sites', '2', '--occ', '2', '--v', '2,3', '--beta', '1', '--dual'), 2, EMPTY, 'error: occupation must cover every site'),
    (('fv', 'wavefunction', '--sites', '3', '--x', '4', '--u', '2', '--beta', '-1', '--dual'), 2, EMPTY, 'error: position beyond the last site'),
    # bugfix, a vanishing 1 + beta*q^n: the determinant raised where the weight has no pole
    (('mc', 'zbox', '--n', '2', '--height', '2', '--q', '1/2', '--beta', '-4'), 0, 'c252db3f2301ba5d06b1554446e1204a2903e2f14a0e60cecf2a9f83e3dd4443', None),
    # bugfix, q > 1: the brute force refused a finite sum with "need 0 < q < 1 in numeric mode"
    (('mc', 'zbox', '--n', '2', '--height', '1', '--q', '3/2', '--beta', '1'), 0, 'dc57bb995e0735565345f622644a7c3809084f05dee8f054387920cdc3efbb0c', None),
    # bugfix, non-finite floats: messages about convergence, range or division by zero
    (('mc', 'entropy', '--mu', 'nan', '--temps', '1', '--betas', '0'), 2, EMPTY, 'error: need finite mu, temperature and beta'),
    (('mc', 'entropy', '--temps', 'inf', '--betas', '0'), 2, EMPTY, 'error: need finite mu, temperature and beta'),
    (('mc', 'entropy', '--temps', '1', '--betas', 'nan'), 2, EMPTY, 'error: need finite mu, temperature and beta'),
    # bugfix, --tol nan: the report was printed and the exit code was 1
    (('pm', 'bethe', '--sites', '3', '--beta', '-1', '--tol', 'nan'), 2, EMPTY, 'error: --tol must be a positive finite number'),
    # bugfix, a negative box width, variable count or point count: exit 1 with
    # lhs 0/1 against a finite rhs, agreement at width -1, a message from
    # math.comb, or exit 0 with no point checked
    (('groth', 'verify-cauchy', '--n', '1', '--width', '-3', '--points', '1'), 2, EMPTY, 'error: box width must be nonnegative'),
    (('groth', 'verify-cauchy', '--n', '1', '--width', '-1', '--points', '1'), 2, EMPTY, 'error: box width must be nonnegative'),
    (('groth', 'verify-sum', '--n', '2', '--width', '-3'), 2, EMPTY, 'error: box width must be nonnegative'),
    (('groth', 'verify-sum', '--n', '-1', '--width', '2'), 2, EMPTY, 'error: --n must be nonnegative'),
    (('groth', 'verify-cauchy', '--n', '2', '--width', '2', '--points', '-2'), 2, EMPTY, 'error: --points must be nonnegative'),
    (('sv6', 'verify', '--params', '{"a1":"1","a2":"1","a3":"2","a4":"1","a5":"-1/2","a6":"-1/2","t":"1/2"}', '--points', '-1'), 2, EMPTY, 'error: --points must be nonnegative'),
    # refused points: a Bethe root on the probe point v^2 = 0.9^2, the
    # spectral map's pole beta v^2 = 1 (finite on the lattice, a known
    # defect), repeated squares, unequal parameter counts and u^2 = v^2
    (('pm', 'bethe', '--sites', '1', '--beta', '19/81'), 2, EMPTY, 'error: probe point too close to a pole'),
    (('pm', 'sum', '--sites', '2', '--v', '2', '--beta', '1/4'), 2, EMPTY, 'error: 1 - beta*v^2 vanishes'),
    (('pm', 'sum', '--sites', '2', '--v', '2,-2', '--beta', '1'), 2, EMPTY, 'error: squared parameters must be pairwise distinct'),
    (('pm', 'scalar', '--sites', '2', '--u', '2', '--v', '3,5', '--beta', '1'), 2, EMPTY, 'error: need equally many parameters on both sides'),
    (('pm', 'scalar', '--sites', '2', '--u', '1', '--v', '1', '--beta', '1'), 2, EMPTY, 'error: u and v squares must avoid each other'),
    # help screens
    (('--help',), 0, '01724010b4a973265038333d68fe0ff7e23061811cbece13f6b6bdca39119c12', None),
    (('groth', '--help'), 0, '46d07669b5254ac517db3816691bae52760bf6e9cf39f7d5544c0fba1ce60a9a', None),
    (('groth', 'eval', '--help'), 0, '7219de96b524dfee5aa7f3fd8145c9ae6f8fa430ef5ed3359d115f3592c55999', None),
    (('groth', 'skew', '--help'), 0, '6954831db2a7391516e3486b1da3c82fafb7e0a5c7de01ef34528334a9546180', None),
    (('groth', 'verify-cauchy', '--help'), 0, '2a70d502fddc8cc4ff4c63d65ca9be8c2a6fea04113955fb2f05e83833d67c06', None),
    (('groth', 'verify-sum', '--help'), 0, '8ba1e84d2a3830ad8fdd09293f84d272958b0527be4cb439cb532ac84916c297', None),
    (('fv', '--help'), 0, '8df4779377b95fdfd91de8c0034552f6ba53f4eba5d6c2b77f2505a5d4936197', None),
    (('fv', 'wavefunction', '--help'), 0, '4a30af12bdf7b698d5bb57454d6b3af2c43d80e905fea9bb44379fb76a967d3c', None),
    (('fv', 'verify', '--help'), 0, '3280039f43200cdad6867c15a81b1fbf32fa037eef34303c4233f013efd5fe2e', None),
    (('pm', '--help'), 0, 'ebf4e4c950ee765748af410e1826acaf67b1026b38893026ea3f705f327ce732', None),
    (('pm', 'wavefunction', '--help'), 0, 'a02dc5e3efc05391b2d89edeac4a35d3aa462d70986eab26a736b170f193715c', None),
    (('pm', 'scalar', '--help'), 0, '04b26ab37520e33aba246784c2d8a5959d003d5783d57b96924124736249b1d0', None),
    (('pm', 'sum', '--help'), 0, 'ff9430cdf65533274640a1d46192cd95c801eee15badb36a3133ad773b604984', None),
    (('pm', 'bethe', '--help'), 0, 'cee1a3084e03e2f6b4f69b0ad97c2eb1fb9a570ff09803edc3b161d6fe45fae4', None),
    (('pm', 'verify', '--help'), 0, 'de9504cec8420a2122943a852740d4542b7118d4c56877f9a2a418ca5e531599', None),
    (('mc', '--help'), 0, '6aa8b26440ec2e4a1a9701c883e2733b80dca4b4f3dc7f87c2ff624d85770331', None),
    (('mc', 'zbox', '--help'), 0, 'b316fea1460cd92468317648c99579c306469bebd25ea51babc7aa608c3cb8bc', None),
    (('mc', 'macmahon', '--help'), 0, '1cde160883f9de1f701b0dd5281c3628985c00ae736bf708b8ad4a05924fe431', None),
    (('mc', 'entropy', '--help'), 0, '4b37242a0c83717f23ce7505dfdd691dc9f12ae0461343ac8e51b2a5d93a275b', None),
    (('sv6', '--help'), 0, '497a1c7de41d5a42f631e61005f3ee4069055808448e12b70a15385f0209893d', None),
    (('sv6', 'verify', '--help'), 0, '906fe1f12ed57e1fe0b5386bd248bb33f1365da4a054cef19b6b806c4d799ff9', None),
    (('verify', '--help'), 0, '5f9543dd02bcda9eb8521a91811b51b90c5373e276dd3e1fa0dcddd15ae3a859', None),
    # bugfix, height -1: --series printed four zero coefficients, exit 0
    (('mc', 'zbox', '--n', '2', '--height', '-1', '--series', '3'), 2, EMPTY, 'error: box dimensions must be nonnegative'),
    (('mc', 'zbox', '--n', '2', '--height', '-1', '--q', '1/2'), 2, EMPTY, 'error: box dimensions must be nonnegative'),
    # bugfix, a negative site count: the amplitude 1/1 and exit 0
    (('fv', 'wavefunction', '--sites', '-2', '--x=', '--u=', '--beta', '1'), 2, EMPTY, 'error: need a nonnegative number of sites'),
    (('fv', 'wavefunction', '--sites', '-2', '--x=', '--u=', '--beta', '1', '--dual'), 2, EMPTY, 'error: need a nonnegative number of sites'),
    # bugfix, an --out path that cannot be written: stdout, then a
    # NotADirectoryError traceback and exit 1
    (('--out', '/dev/null/x', 'mc', 'macmahon', '--order', '2'), 2, EMPTY, "error: [Errno 20] Not a directory: '/dev/null/x'"),
]


@pytest.mark.parametrize("argv, code, digest, error", ROWS, ids=[" ".join(r[0]) for r in ROWS])
def test_cli_golden(argv, code, digest, error, capsys, monkeypatch):
    if "--help" in argv and sys.version_info[:2] != HELP_RECORDED_WITH:
        pytest.skip("argparse lays help out differently in this Python version")
    monkeypatch.setenv("COLUMNS", "80")
    try:
        got = main(list(argv))
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert got == code
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
    assert next((ln for ln in captured.err.splitlines() if "error:" in ln), None) == error
