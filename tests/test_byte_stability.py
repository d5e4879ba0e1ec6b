"""The bytes of the deformation-complex and morphism reports, pinned by sha256.

The reports of ``deform`` and ``cohomology`` are the slowest the CLI prints
and the ones every speedup of the deformation layer must leave unchanged.
The digests below were recorded from the word-by-word explicit check, the
word-by-word comorphism and the full twisted lift; a change that moves a
single byte of these reports fails here.  The morphism reports were
recorded while the crosscheck still intertwined the full lifts of both
codifferentials.  The tensor reports, in both formats, were recorded from
the explicit check's own per-word equations and the descendent structure
that visited every target word.  The CLI prints the input path, so
the commands run from the root of the checkout with a relative path.
"""
import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from linfty.cli import main

ROOT = Path(__file__).parent.parent

DEFORM = {
    ("heisenberg", 5): "39edaa41f77f3854d3a57bdf077690021a59825cff0a4408b30b85cb8fca6d42",
    ("heisenberg", 6): "1dcb44abbc2f4db13fcd5b6f7734a18b1cb7dcbedf4867e89720ace3c418efb1",
    ("adjoint_identity", 5): "a6c8719fe31c886d6835e558a7e3b2269925a4683c31cebd81a13beea49dca1a",
    ("adjoint_identity", 6): "fc5b7841f9495d16485f010d69a5e04d3b0394139e728c3f7459995c29f154f7",
}

# every (degree, weight) piece of the bound-5 complex of each fixture
COHOMOLOGY = {
    ("heisenberg", 0, 1): "d079fe06bc4293107cc3a22f483b0ecabb904b8ad389f9d63e41975c72e00c70",
    ("heisenberg", 1, 2): "3ef7a4be712561ac909ee2a9b1e967fecc7c5065737753b4ba8ac737cc8abd17",
    ("heisenberg", 2, 3): "1dadf900b5119925922edbcc821b1735eb102e9dfc59139e9ec13cab5e0ab784",
    ("heisenberg", 3, 4): "d2aec22842d8999c3091a78c5ded2df9616da397615da58f95281cb85b1069ee",
    ("heisenberg", 4, 5): "2fbe0c646d29761d520715fb0e0083c5f97c20f0215ae97efa6afffcc8abd760",
    ("adjoint_identity", 0, 1): "2a1e79e03d0faf19d848c0d44cc1df75fe1f37f054a40cf1d151712b7d38dccf",
    ("adjoint_identity", 1, 2): "d5b6bee078334011ee5ee0d777314739d0f237fab6461b4d6e9bb6e88a09eacd",
    ("adjoint_identity", 2, 3): "eaf970421dc68e56f0eb9ddfd92adc82be396bcea55a9de50a89d64f0880b10e",
    ("adjoint_identity", 3, 4): "7a172da53bc1e97e610b97ea0c09fbf254f54fe577577d43f51725bc185029e2",
    ("adjoint_identity", 4, 5): "6cb8662184599c6235a116f738f49bdfe6b4d06547b668f354556712c77f12d9",
}

MORPHISM = {
    ("check-morphism", "morphism_quotient", 5): "ca796c2a17a06c84a2cbaaee8400c34465a9f016f33460f9cc897dcf21694165",
    ("check-morphism", "morphism_quotient", 6): "d464935b765116c1ebfc41f81db67265597c3bb8d76507c2affe00e3f131282f",
    ("check-morphism", "morphism_quotient", 7): "f85d87d567bd192ad49b630f8f5e1f92b4aaa34378ce8e35b249ca1e6c7cb81f",
    ("check-morphism", "strict_centroid", 5): "8f41177e00fc807c283ceac0e107abcbfad2aaf21c7e83ae62b83a3c30805de9",
    ("check-morphism", "strict_centroid", 6): "0b8f4fa26636b283d090d6eb0910f4035c90ca2ca942cec65cf91c8fe5862f94",
    ("check-morphism", "strict_centroid", 7): "1fd3eab5aa961938d5aaf837d46cbd36ffae155200f49b1b467dad113ca01285",
    ("check-descendent-morphism", "heisenberg", 5): "17ead927152dd8aee94e43b6c3fc7889b495f32daaabf0655c1aa500676a1678",
    ("check-descendent-morphism", "heisenberg", 6): "15cea1758c88ab4a0bf0b2f3983edf86a33f126845474ac98fcf67be4118a4dd",
    ("check-descendent-morphism", "heisenberg", 7): "2f27026a0094dfab7291654f385f6216d75d59da0781e82da08ca8e7262a163d",
    ("check-descendent-morphism", "adjoint_identity", 5): "a634b103d0319b2c7191cba04d9f472dd188dbaf1bb66ec8e61375390c285f3a",
    ("check-descendent-morphism", "adjoint_identity", 6): "1d3930966a620c20ac8e0bad4bb26af55a2f5c53b9bec85eedd51ecca5918338",
    ("check-descendent-morphism", "adjoint_identity", 7): "24f1cfe2e019e0e66b0426de16fd3a56a11169be17e9315af512fe5c00d7859d",
}

# check-tensor, descend and check-descendent-morphism on both tensor fixtures
TENSOR = {
    ("check-tensor", "heisenberg", 6, "text"): "d8f129ec981f639c588d7c8f2b31803a16f8a1878915a16d050ba03b70c1acbd",
    ("check-tensor", "heisenberg", 6, "machine"): "587b6032df22513e24779d566d472b36cc7bb596eea3a45d7aa2d8723959f422",
    ("check-tensor", "heisenberg", 7, "text"): "d26dcd020ac9ea4ca6a0bc329aa0444586480be7083bd6595b679f3bf6294e4c",
    ("check-tensor", "heisenberg", 7, "machine"): "2c843dc06261a0f933039fb3b277a3421088597240e52e667a8c5cf81cb514db",
    ("check-tensor", "adjoint_identity", 6, "text"): "a601e4ef98a8581ad65ab972cf835e36cf9ca02b2cf63bb3d267126e34c9c80d",
    ("check-tensor", "adjoint_identity", 6, "machine"): "0a6ffbda50b9ba428e1669baa35dc679dcf4567e0187a689c4a0dfb87cc89e34",
    ("check-tensor", "adjoint_identity", 7, "text"): "d53b2625b4a084132c14ec5ead6f505d17b802212a364ab33686951bc15dece0",
    ("check-tensor", "adjoint_identity", 7, "machine"): "2c3f2f8b9ca398f4a1174b22bece9014bf8ad8de60d70762cce127f815d354d2",
    ("descend", "heisenberg", 6, "text"): "6616d70026d4ecf8ff2372345803d54ac854323fcdf6f6ead574f122a2a5ff13",
    ("descend", "heisenberg", 6, "machine"): "d37a633471defda17812faeb41025328145ef42086b8db4243a3372ec2fb5a11",
    ("descend", "heisenberg", 7, "text"): "26bb82e8ea7b79dbeeeb61e0f6e953777de79f385dc8a1f84a955b0a01608db5",
    ("descend", "heisenberg", 7, "machine"): "4d9e48696c819effa85242c771398ed26b0fea0cc530302e17c516426f98bd50",
    ("descend", "adjoint_identity", 6, "text"): "58b18180e913243ddac0cd4a51e4e7697fce15ca824868c7969eaa5fb8eb1c98",
    ("descend", "adjoint_identity", 6, "machine"): "e795651c10c6309e094cdbe565a4fe0b7e38e0bce827019fbbd41a72123f6167",
    ("descend", "adjoint_identity", 7, "text"): "76680cfcd1aef2e113dcb9ed40676bcb7779d842e24d3a12e6ac91d70dedf5bf",
    ("descend", "adjoint_identity", 7, "machine"): "e161199dc47cc2f10c77031e07214dda40201828f905374d42256b35c35d0097",
    ("check-descendent-morphism", "heisenberg", 6, "text"): "15cea1758c88ab4a0bf0b2f3983edf86a33f126845474ac98fcf67be4118a4dd",
    ("check-descendent-morphism", "heisenberg", 6, "machine"): "832f3e056e234fcdfb883b5dcceef75755a590ba2bd882d299ffc34bc415d7ad",
    ("check-descendent-morphism", "heisenberg", 7, "text"): "2f27026a0094dfab7291654f385f6216d75d59da0781e82da08ca8e7262a163d",
    ("check-descendent-morphism", "heisenberg", 7, "machine"): "cc2bb4219ad0fb494f35840a7efd5e7218ac16f8d2becfe300e1aacbdd1d6b20",
    ("check-descendent-morphism", "adjoint_identity", 6, "text"): "1d3930966a620c20ac8e0bad4bb26af55a2f5c53b9bec85eedd51ecca5918338",
    ("check-descendent-morphism", "adjoint_identity", 6, "machine"): "5b16ef08538a41a6f07ff32829fb0a4e1a4a2c7a65d10d26069aa308f8b9df91",
    ("check-descendent-morphism", "adjoint_identity", 7, "text"): "24f1cfe2e019e0e66b0426de16fd3a56a11169be17e9315af512fe5c00d7859d",
    ("check-descendent-morphism", "adjoint_identity", 7, "machine"): "d6dd0463d50cf3714af0aeac7acc18850283b4989b5dd99d74041974b1e4ff30",
}


def stdout_digest(args, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("fixture,bound", sorted(DEFORM))
def test_deform_report_bytes_are_pinned(fixture, bound, monkeypatch):
    args = ["deform", f"tests/fixtures/{fixture}.lif", "--bound", str(bound)]
    assert stdout_digest(args, monkeypatch) == DEFORM[fixture, bound]


@pytest.mark.parametrize("fixture,degree,weight", sorted(COHOMOLOGY))
def test_cohomology_report_bytes_are_pinned(fixture, degree, weight, monkeypatch):
    args = [
        "cohomology", f"tests/fixtures/{fixture}.lif", "--bound", "5",
        "--degree", str(degree), "--weight", str(weight),
    ]
    assert stdout_digest(args, monkeypatch) == COHOMOLOGY[fixture, degree, weight]


@pytest.mark.parametrize("command,fixture,bound", sorted(MORPHISM))
def test_morphism_report_bytes_are_pinned(command, fixture, bound, monkeypatch):
    args = [command, f"tests/fixtures/{fixture}.lif", "--bound", str(bound)]
    assert stdout_digest(args, monkeypatch) == MORPHISM[command, fixture, bound]


@pytest.mark.parametrize("command,fixture,bound,fmt", sorted(TENSOR))
def test_tensor_report_bytes_are_pinned(command, fixture, bound, fmt, monkeypatch):
    args = [command, f"tests/fixtures/{fixture}.lif", "--bound", str(bound), "--format", fmt]
    assert stdout_digest(args, monkeypatch) == TENSOR[command, fixture, bound, fmt]
