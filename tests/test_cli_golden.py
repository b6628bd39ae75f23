"""Byte-identity of cheap CLI invocations: exit code and sha256 of the
output (stdout, then stderr, as a terminal shows them), and of the
``--svg`` picture for a few drawings.

The hashes pin the exact output of the commands below, so a refactor that
should change nothing observable is checked to change nothing. Update a
hash only together with a documented behaviour change.
"""

import hashlib

import pytest
from click.testing import CliRunner

from crossbound.cli import main

GOLDEN = [
    ("oracle complete:5", 0, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("oracle bipartite:3:3", 0, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("oracle petersen --pretty", 0, "692cd67a2af5b0c633f0492c2f9db59ce38b67d6b73a93cc41b3d5fa7c234521"),
    ("oracle cube", 0, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    ("critical complete:5 --k 1", 0, "28b780ab8aeda99d6493959104708a7c46752b3c6f0f1b591b452fb69a6987f1"),
    ("critical bipartite:3:3 --k 1", 0, "3ec366b5bdddd3806260a217577082f3b6ba912a53dd40aa2a8fb15cf80cc0a0"),
    ("analyze petersen", 0, "e34aec1528bf83e0439f6a264af20cd52b9508046dc3164ea582f885445ffa76"),
    ("analyze planar-plus:10:1 --seed 4", 0, "53b97fe26a2cacccf83964d00a7a5c774ccd9bfd3f1af3d0f2790a6876e7b4c3"),
    ("draw complete:6", 0, "4d80a63c6390885992051782185daef4ae64619cf07a1acb789196569a745c76"),
    # petersen and K3,4 route through faces longer than triangles
    ("draw petersen", 0, "c33587c9332b7684a93b2cc3d9e040547abf5d2606e97f7d78af59cc1419945d"),
    ("draw bipartite:3:4", 0, "8252831b98cbb3411aea1c36e5c1b13847c584c45e4b9417337b734c5ece2aea"),
    ("draw maximal-planar:50 --seed 1", 0, "82d46b3d69e27b265769711e603923dcec0ea4291019bcb3dfdad2a49f4d3d5f"),
    # each later route is computed in the embedding the earlier ones were spliced into
    ("draw planar-plus:12:3 --seed 7", 0, "18a8723710f0d8afd76149340286bf37dbd40f3f2c6689d7194a743da8b97fc7"),
    # answers that need configurations crossing one edge more than once
    ("oracle complete:6", 0, "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2"),
    ("oracle bipartite:3:4", 0, "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ("oracle bipartite:4:4", 0, "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d"),
    ("critical complete:6 --k 3", 0, "ddb2247d4a2062343adf482e0a4ce4870f36068c125f4c7883c2d4fa3b766bfa"),
    ("critical petersen --k 2", 0, "d48fa8652f94b31b71b2b6d9fdfdd5c84e40d32dddf30b79eabdc6cc4a1d5ca7"),
    ("critical bipartite:3:4 --k 2", 0, "d02c91c62d164253240a2aec952496f488e71a15248dd0b441db41f7320f8be3"),
    ("critical bipartite:3:5 --k 1 --max-k 1", 0, "ee8da57af7d3cf36f5009eb75766906411cd7e8a7fbbcc59dddce27a2883bf5e"),
    # cr 4 > k: K3,5 is 3-critical, and cr is searched from its skewness lower bound
    ("critical bipartite:3:5 --k 3", 0, "b9cbd3e23821a31e462a7fc8a15452907640e77ee97391481a294681fc9334d1"),
    # cr 4 = k: the criticality check and the cr search both reach level 4
    ("critical bipartite:4:4 --k 4", 0, "a5b2a97b2ff701bff4954495117e6d5d9b5266889f9435d967e97d5e2d14299e"),
    # the budget error and what it established go to stderr
    ("oracle complete:6 --max-k 2", 3, "cc981d63f09b579508c3796cdb82aaaf385a3a7b6b18eb53be28a941f091e62a"),
]


@pytest.mark.parametrize("command, exit_code, digest", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_cli_output_is_pinned(command, exit_code, digest):
    res = CliRunner().invoke(main, command.split())
    assert res.exit_code == exit_code
    assert hashlib.sha256(res.output.encode()).hexdigest() == digest


SVG_GOLDEN = [
    ("draw petersen", "032b38b8149443da015056f294474defafacc6605389842a92b3167b27177558"),
    ("draw bipartite:3:4", "da585353eeb35e0c5769da5357c33f74a014371915c55656dc97af2b30a72a38"),
    ("draw complete:6", "7adef544c2d993f92d9c50569fad1995fc355506d253ab85551b2b2d7eb53b06"),
    ("draw maximal-planar:50 --seed 1", "9a6674a9337c8bf1a6c4611ef4db1dbc8b77b4625027c09d4db4ea8c10a217cd"),
    ("draw planar-plus:12:3 --seed 7", "c8abb2d70651d8b9b0694c04768dd78166a70be1933c26cdf6eb7d66cdddebf2"),
]


@pytest.mark.parametrize("command, digest", SVG_GOLDEN, ids=[c for c, _ in SVG_GOLDEN])
def test_svg_output_is_pinned(command, digest, tmp_path):
    svg = tmp_path / "out.svg"
    res = CliRunner().invoke(main, command.split() + ["--svg", str(svg)])
    assert res.exit_code == 0
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == digest
