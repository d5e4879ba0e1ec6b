"""The bytes of the deformation-complex, morphism, tensor, structure-check and
action reports, pinned by sha256.

The reports of ``deform`` and ``cohomology`` are the slowest the CLI prints
and the ones every speedup of the deformation layer must leave unchanged.
The digests below were recorded from the word-by-word explicit check, the
word-by-word comorphism and the full twisted lift; a change that moves a
single byte of these reports fails here.  The bound-7 ``deform`` reports and
the bound-6 ``cohomology`` pieces were recorded while ``d1`` composed the
twisted family with every basis column; the bound-8 ``deform`` reports and
the bound-7 ``cohomology`` piece while ``d1`` still lifted the twisted
family's pure-target part in full.  The morphism reports were
recorded while the crosscheck still intertwined the full lifts of both
codifferentials.  The tensor reports, in both formats, were recorded from
the explicit check's own per-word equations and the descendent structure
that visited every target word.  The structure-check reports, in both
formats, were recorded while ``check-lie`` and ``check-loday`` compared
the componentwise double sum with the coderivation square of their own
kernel.  The action reports, in both formats and with their exit codes,
were recorded on fractional files while the action checks still ran on
``Fraction`` constants, and, on the fixtures with an action section and at
bound 3 on the fractional files, while ``check_action`` still summed the
axiom over every canonical acting word and the product built its brackets
in loops of its own.  The ``adjoint-strict`` and ``centroid`` reports, in
both formats and with their exit codes, were recorded while both checks
evaluated their maps word by word.  The theorem-file reports, in both
formats, are ``check-loday --space V`` and ``check-morphism`` on the three
files of ``tests/fixtures/theorem/``, recorded when those files were added.
The string-file reports, in both formats and with their exit codes, are
seven commands on the two files of ``tests/fixtures/string/``, recorded
when those files were added, before the series route and the deformation
complex shared one builder of the twisted codifferential.
The CLI prints the input path, so the commands run from the root of the
checkout, or from the directory the action and strict files are written
to, with a relative path.
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
    ("heisenberg", 7): "765ff47823ed2b40730b9c3ba3730ace6e95cb887eaa5739f23f705a05383a10",
    ("adjoint_identity", 7): "4b32cef4f56932f175ebff1d79106caf65741490b515aada35c7779892a6175c",
    ("heisenberg", 8): "a1b3304ee32649ceb95389bd8718ad0f076d39da323138989bf533f4c78b9a92",
    ("adjoint_identity", 8): "5c0bea5fa87763f38b74ee846562f0a428e75a6012738f034b0797285c0fe3aa",
}

# every nonempty (degree, weight) piece of the bound-5 complex of each fixture
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

# three empty pieces of each fixture's bound-5 and bound-6 complexes: a
# degree below the lowest, a degree above the highest, and a degree d off
# the diagonal d = weight - 1 that every basis element sits on; recorded
# while an empty piece still built d1 and projected the degree-below
# columns onto it
COHOMOLOGY_EMPTY = {
    ("heisenberg", 5, -1, 1): "df04ff2fb6537fa5ca582f95e755514906c7be917a842e6636b611b94023eef5",
    ("heisenberg", 5, 5, 5): "db6ca900eda3d44a503d3567a070d4f5ebc8e575c65989fcdab1426894b2b222",
    ("heisenberg", 5, 2, 4): "881db18d2fee3167ea59967b208e6841cc78936f36090cb36c12d9832d84eae2",
    ("heisenberg", 6, -1, 2): "32b1c56eaab6cdc93807ff5e50e8813d34177a218a87c3e9a22a4ebdae52c663",
    ("heisenberg", 6, 6, 6): "e2dae7aa9d4d3cbeb76641bc44fd1d8ad009014121cb198c60af41b21c3142fb",
    ("heisenberg", 6, 3, 6): "18cf7826bad48179fc7d40158df3b6935b84d402bb295a6fa774b4b5f7abd7ef",
    ("adjoint_identity", 5, -1, 1): "fc572adca5346ba3932e177888211bd08eba306876452f0917e0eccb018867fc",
    ("adjoint_identity", 5, 5, 5): "3a96fe8fbf6ff4db5627cc41823c36833dd3759079bc770b94d06daa81ccbd55",
    ("adjoint_identity", 5, 2, 4): "7a8a319db91bfb6949759802bccd2793d96e71a6a96119ed59f3056946776ce5",
    ("adjoint_identity", 6, -1, 2): "db871889401b0340959e5d71d7c0d68b5ce39446a343f1dd0fbf227eba3b4f60",
    ("adjoint_identity", 6, 6, 6): "37c122afac82cb506923489b4df7ee52eb6449701e9d9350a77f4a75193cc932",
    ("adjoint_identity", 6, 3, 6): "7c768760693aee7686b41f8e1e7a6eaf351d757a9f4fe5deb774b5071e612cb2",
}

# every nonempty (degree, weight) piece of the bound-6 complex of each fixture
COHOMOLOGY_BOUND_6 = {
    ("heisenberg", 0, 1): "ca6112d39165f805465cd1c463035c2408265fa80b9679d53e20b2386eaad218",
    ("heisenberg", 1, 2): "bb5ead2f0c58a5fef8435a8ebd9980514357e7bda85ea89126a91dee9c1f2818",
    ("heisenberg", 2, 3): "7b69491f950b8450d0fb82604da62010c29c76d7ee75add65345d58e44c9057a",
    ("heisenberg", 3, 4): "915d8b3e4cb9caf1b6312399670b229146a1ba2af4708cb72b496931b1ca9146",
    ("heisenberg", 4, 5): "72ec9447c658b74806ce9033d70a5aba22885b69fa02c789ad10d70753080655",
    ("heisenberg", 5, 6): "c3e8b5f1036adf18a90d13e31310e9e5a781553dce8a0621828477ed9b2b7179",
    ("adjoint_identity", 0, 1): "5950f68d63e75315dd5b85cb9ded843594610dde7e2f1dcb718c1d830e3791bd",
    ("adjoint_identity", 1, 2): "5da671c99f04e1b390c46069fb716816bf437a388b752e0454495dab0194473b",
    ("adjoint_identity", 2, 3): "6f761a025b540a920e552eb8e267b48986eee00f0d5ce965dbc365140e678a1a",
    ("adjoint_identity", 3, 4): "2f022a7ff04c1dcb9344ca763e3801a43192738cc6c10dc648ac0993fa3963d4",
    ("adjoint_identity", 4, 5): "a5f7a18b97dcabb7fbdfb55fa1edb239202ae9a45cbd34e56cb59494b3ac138a",
    ("adjoint_identity", 5, 6): "b55e4a2454695abc5d8a1d8fedf761d7546dd6fec67930b946f1e448809232e1",
}

# the top piece of heisenberg's bound-7 complex, the largest its d1 ranks
COHOMOLOGY_BOUND_7 = {
    ("heisenberg", 5, 6): "df6998cc1662dc1e1961c0e71d0d8b2cd23f66d7d69f8f699e876dc94dff10d2",
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

# check-tensor, descend and check-descendent-morphism on both tensor fixtures,
# and adjoint-strict and centroid on the fixture that holds both unary maps
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
    ("adjoint-strict", "strict_centroid", 3, "text"): "48dabf55defb88bb1a8b66e9fb74c876c464bb995995ad76312727178051ca53",
    ("adjoint-strict", "strict_centroid", 3, "machine"): "ee1cafe81110889b768dead78d58310b13869e7b6a79ff2ea2ead1291721f75e",
    ("adjoint-strict", "strict_centroid", 4, "text"): "081947bf9feb999327fa3c215bd7e997ba4078405cde73249cc56f9eb6411655",
    ("adjoint-strict", "strict_centroid", 4, "machine"): "8f67abe55ade6c9ccd85eda06f0fcb4177803c525cf111ffcfd2126f8448014a",
    ("adjoint-strict", "strict_centroid", 5, "text"): "0f1769efc36121f376fafecd33b62bcf69eb11b5eae22e205170f2329bff3ba5",
    ("adjoint-strict", "strict_centroid", 5, "machine"): "f945bce2091a813ae80e9adfda256a0c12aac39828dbfb001bb93b4c60420005",
    ("adjoint-strict", "strict_centroid", 6, "text"): "48e6ad6781e7d89defffdbf0c58e95b88ffb3ff23bab82bd4279003e3ef1a252",
    ("adjoint-strict", "strict_centroid", 6, "machine"): "b88de4d4c2fe8063249b940e5c9d368b70a6864a593160deaff10de5a061f89b",
    ("centroid", "strict_centroid", 3, "text"): "b8e4bd991ee209c36f91c2907f435cff9bc977e40aaeeeea07111af8140efa71",
    ("centroid", "strict_centroid", 3, "machine"): "637a6085a1122383c563ca60dedce791ea93052de27b2da80a8440e45774dd7b",
    ("centroid", "strict_centroid", 4, "text"): "3328367970375bc14155a7200418b9ed0b5242e8145b7cb4a9f53a40fbc441b6",
    ("centroid", "strict_centroid", 4, "machine"): "20adaf24232b3b3cb0b4bd9b733661944fcff61ba47b246870602ef3f1b6b1f5",
    ("centroid", "strict_centroid", 5, "text"): "3dd653086b7dcea7b3efc9c95fa7629c215f0171801d526e15ccc2a1b9d922a5",
    ("centroid", "strict_centroid", 5, "machine"): "9272e4c51942ae49ed158b5a1e77503e72962f156fe69902b16d0414870a49b6",
    ("centroid", "strict_centroid", 6, "text"): "2b5b914e52058c8d1b66fd7ec23acecfde5b5e33f28b286b7bd4c6b75d6df331",
    ("centroid", "strict_centroid", 6, "machine"): "6f14dff695647d3eff97f7876e19ad0ef8c940445a98891c1281688e6d18d5ce",
}


# the theorem files of tests/fixtures/theorem/: the descendent structure on
# V, E's brackets as a plain section and the tensor as ``morphism V E``,
# the CLI's first inputs that reach check_loday_morphism
THEOREM = {
    ("check-loday", "adjoint_identity", 3, "text"): "fabdf247d8d8443d2cd98543f8803c7581a103d1b0d5c4e811edd236d0ba1951",
    ("check-loday", "adjoint_identity", 3, "machine"): "5c5168d0bd983e61e44d2225e6bb6457a2bc77028d92554830823157c345ee2c",
    ("check-loday", "adjoint_identity", 4, "text"): "b23e5e7ec8af73ed5ccd16982df0d50bb125e3d880c83133f45b3da59ba8ac87",
    ("check-loday", "adjoint_identity", 4, "machine"): "c4f47ec869b76a63063e60ca7c9688d6c85cee13856043affefc6de0a4614508",
    ("check-loday", "adjoint_identity", 5, "text"): "70ea03715cdda57d064f70c418b168e3e6f225f053e1cdccd66d256a9591b567",
    ("check-loday", "adjoint_identity", 5, "machine"): "00730122c00c6e807ef958cc42c741d7b8eb250328939dc6a2544359d575c9c5",
    ("check-loday", "heisenberg", 3, "text"): "25811ad629d9939fee41af6e4e0cacfb22acea4c148073b22dcb28bda2b4ab09",
    ("check-loday", "heisenberg", 3, "machine"): "0b6166e2d6bf76811b9e7706c694fa3d778b3af84b13b992f13042834f816bd9",
    ("check-loday", "heisenberg", 4, "text"): "1395c650ee643cc7fd6f7f02578647cee2dd20c969861c3a344b87e90ab8608b",
    ("check-loday", "heisenberg", 4, "machine"): "15dec7067321d0478cda204a82bf0146332df8eaaad1bb60243484d0a6d71fb2",
    ("check-loday", "heisenberg", 5, "text"): "91826c8dd62b78df0686408210814c044877b02b2ceeba642045ba0af369ea15",
    ("check-loday", "heisenberg", 5, "machine"): "d7cf33b7c542ad8a94769712298a75332057ae13614a83ece8c11b2e47ba3077",
    ("check-morphism", "adjoint_identity", 3, "text"): "7f1ed1697b9868f6330736ce8892eee483ecbb0d99deb0d2915e723bff02ce72",
    ("check-morphism", "adjoint_identity", 3, "machine"): "9620f17de99c713e711f384a149239103e29ddc57de144b28a1c2ee76ea62fa5",
    ("check-morphism", "adjoint_identity", 4, "text"): "ca00c4165f6bfa69857f7cf76e7e8d9c9ca5df369f1ca50471b655cd7a1515cd",
    ("check-morphism", "adjoint_identity", 4, "machine"): "0ebb6ed92edd833affac7db173b1144e1bfca7d30201479b37a11f74cc4a0030",
    ("check-morphism", "adjoint_identity", 5, "text"): "89563986adbcb8a7ae2cd7d671331b66a4829dd6c7dbda081d4256a9ba5b39a4",
    ("check-morphism", "adjoint_identity", 5, "machine"): "e522f7b172d8c3799f06294a01dd8776401bbc474ab6d18e1b42c2b6c9b427ff",
    ("check-morphism", "heisenberg", 3, "text"): "9f0fc3dd5812d35c1fd8f57e890ff6431ae3d6f59783edfeae2c9ade481c42d4",
    ("check-morphism", "heisenberg", 3, "machine"): "bc66cc6a74d02b4a2e413cf7d54ec991ee47576e235ffdd44dc1d4131ef38472",
    ("check-morphism", "heisenberg", 4, "text"): "b3cd636c9d671ec27eedb78a956bc8c6d7f3294c96e234f000b1522f7acab064",
    ("check-morphism", "heisenberg", 4, "machine"): "6af84015c8be2e96e60456bd2eb867a7101a1391cd37d9879a89389ad035f8e2",
    ("check-morphism", "heisenberg", 5, "text"): "1b76c562b26018d35cf6c4f28e9ec1b96c34eff1cdaefddad777639cd86f5949",
    ("check-morphism", "heisenberg", 5, "machine"): "1655ac74a5bbd95808893397a7f93b9fb94e7066d68a849713116d208a6000ab",
    ("check-loday", "string_tensor", 3, "text"): "b34f574eb8d77022d3aa730d7fd2b2739b3193f3064be4db20e525cee94310a3",
    ("check-loday", "string_tensor", 3, "machine"): "053f2b8c230b8ff98cf30afa5ac179516874a3a56fd7fb2b006398f44b236549",
    ("check-loday", "string_tensor", 4, "text"): "665b3283305e4dd6a32649d66a19092b3e04035096eede55357ac60cb099d547",
    ("check-loday", "string_tensor", 4, "machine"): "43d19dc248f1c1f4018f340a4187cf24f6efcad5ee37bace299f1ee10015f68a",
    ("check-loday", "string_tensor", 5, "text"): "0b0e7a1f6bd977a7adac299ebb8211c35271d4d601151068f966ac3de91d46a1",
    ("check-loday", "string_tensor", 5, "machine"): "427c7a03e1fd65252f5b2c398a4a12d8e60c078514926c5f12fe64cb23f259b7",
    ("check-morphism", "string_tensor", 3, "text"): "c97d7fb5019de5a31aa80f9fb0b9092ba9c820ad676977035af8bbba70f011f2",
    ("check-morphism", "string_tensor", 3, "machine"): "63cab1f3e988cd9bbfb6f0b3c54d63b69d0220f66504c515e41930e2e1f59980",
    ("check-morphism", "string_tensor", 4, "text"): "7fe6a2d40e7884ff385c24f5a41ca80ee680132a3ed83a6e85433d11e1b7d3ef",
    ("check-morphism", "string_tensor", 4, "machine"): "3e381d0544afcad656fbc6d88afe3fd12afa80412cdfe97526adfc26a34e3152",
    ("check-morphism", "string_tensor", 5, "text"): "36be5821e07c70346eda54663b65841346e8cac8b99d731b27534fcea824e702",
    ("check-morphism", "string_tensor", 5, "machine"): "614deeb03adf66f2b33a0c5acd9183c4d3c90888f945adb15cb7a9d585b1a2b7",
}


# (exit code, stdout digest) of each command on the string files of
# tests/fixtures/string/: the string Lie 2-algebra acting on sl2, with the
# identity alone (not a tensor; check-tensor lists 6 residuals on both
# routes, the first file whose series route has a residual) and with the
# binary component that makes it one, the first tensor that is not strict;
# recorded when the files were added
STRING = {
    ("check-lie", "string_host", 3, "text"): (0, "91a95766b865d5e010c07f7141e5f2495b34fc41368194cae10ac3a1c5510ae3"),
    ("check-lie", "string_host", 3, "machine"): (0, "00f7da09a80c7775b9a5d5593cdf79ab145508d630994887ea08d2404d0bc473"),
    ("check-lie", "string_host", 4, "text"): (0, "704289a9d590072c6fa2ee174597b8d1e7099de8e813b727bc593ab5be47b1d0"),
    ("check-lie", "string_host", 4, "machine"): (0, "f31920735fb5e98648bc738916322af4790f1f7ef9e2a8fa4e4adee02af4a3de"),
    ("check-lie", "string_host", 5, "text"): (0, "6541a9ce57ad9cd84965e98f3a84e345c8904d579ab97867653acbb9e74a31d7"),
    ("check-lie", "string_host", 5, "machine"): (0, "a99e9a7a8133a493a8e0c326183f391ba584798a898141051c1d570cf9568815"),
    ("check-lie", "string_tensor", 3, "text"): (0, "0e0581a8a1d005b7a1e9d461f5fc3012de92ff281cb4cfed302f026d4aac6fb5"),
    ("check-lie", "string_tensor", 3, "machine"): (0, "1105a9c6c70be1a732b3ed7aecae8e0cf24cc2b57c4ad3d414d8cbe0d26e2ede"),
    ("check-lie", "string_tensor", 4, "text"): (0, "5f8e74231aca1102b94a278582a577e699bfeb33f73a7ed8acdfde0357055149"),
    ("check-lie", "string_tensor", 4, "machine"): (0, "af85623fcd18f5bcab9e2374b9fb1ce0cef59f42cf088944d051e0d744c89e1d"),
    ("check-lie", "string_tensor", 5, "text"): (0, "71af29a9a66715818320e4ecc1bca777415dbf8a3b73e2545b80acb611907a4b"),
    ("check-lie", "string_tensor", 5, "machine"): (0, "1fd189440d5f39ace475e8d429bb45fe2257e2b002ef15588ff4f809b8097e2e"),
    ("check-action", "string_host", 3, "text"): (0, "ad7464ffae8f28fe45a7fa38199a75933643b076aa1e55a840a423dd8205d4c2"),
    ("check-action", "string_host", 3, "machine"): (0, "9de18a8118137e313b03ccd3ca6042952b1ca97fc52441df60e92e53c6715bf3"),
    ("check-action", "string_host", 4, "text"): (0, "0114836ff9d62b8be5a0648d6b0aacc72110a65e391e6fbf948e0f0d5d69da11"),
    ("check-action", "string_host", 4, "machine"): (0, "cf4012bc72a4d23959a5a7f4d92250d7c11b3ca7fb74fac27c9b6a8e19fdb0c0"),
    ("check-action", "string_host", 5, "text"): (0, "b5f31720f0a3fe73ac964242f43992e81851f50e6e63fe331156ca9e9f5614c5"),
    ("check-action", "string_host", 5, "machine"): (0, "8a03fb6fe97a84383300fbdd96fc7eabcf6d7ed00a4b814321e4982af1de21bc"),
    ("check-action", "string_tensor", 3, "text"): (0, "83365f7e7066ab502df3b965407875f530e5ca2b9536fb0208dc110e13c99e71"),
    ("check-action", "string_tensor", 3, "machine"): (0, "5e0aa7df54620a8bb331f8d800017b5c5700da3a62b718f9a6780bb330c8ff46"),
    ("check-action", "string_tensor", 4, "text"): (0, "143317cbebe171a79d3e261045120661395d2c4e0fb18e3b8fc7ce957a3091d4"),
    ("check-action", "string_tensor", 4, "machine"): (0, "b35743008b5c780180789d4e8acab38d11be37ad0f595ce2b52d6836bbc581f2"),
    ("check-action", "string_tensor", 5, "text"): (0, "c40ac236c4ed81e893e5dddc935d146e8356fc83c5d7a69a85fe8adc9a9ccdaf"),
    ("check-action", "string_tensor", 5, "machine"): (0, "aa2d4295f627ce537ace951b3ac1dfc6a6f3a362580719fa99facc90d30ad204"),
    ("check-coherence", "string_host", 3, "text"): (0, "b17b827097ff11cfe3a49b771c5f513366a5327909568d05d2abc24c8b326f20"),
    ("check-coherence", "string_host", 3, "machine"): (0, "0ed5430005aaaf7f65745d4e9b584c18af15910696abaa2911e3069a7d7a20c6"),
    ("check-coherence", "string_host", 4, "text"): (0, "167b7ebd9a2dabab4052bb03ec1e0d70c546f2bde0b3a2de6e2a85d43efb5d17"),
    ("check-coherence", "string_host", 4, "machine"): (0, "a371f8de2c5b3d3eaa3b2edaa93d07f125aca2436c35e4995cd4c847bdd57517"),
    ("check-coherence", "string_host", 5, "text"): (0, "4be3b5c1d313b702d961804084198c6115401249db221b231af1a49e932797ad"),
    ("check-coherence", "string_host", 5, "machine"): (0, "6d21254dc103e98041400ab3514d870e60d72a4e3071888ec1e27b214e196923"),
    ("check-coherence", "string_tensor", 3, "text"): (0, "c71a0e0c6ec6c2d4b7523657820e52a84ca72f1b3a608a9e73a08f71d4fa2797"),
    ("check-coherence", "string_tensor", 3, "machine"): (0, "12149f47013c37a81f4de2b1088adba70c147fa0f22c8eb296aaffa2e7a98c4e"),
    ("check-coherence", "string_tensor", 4, "text"): (0, "f0c7973d6ee44b12bc686084f73a9dc347bfadd9e82d111c3147e481056f19d4"),
    ("check-coherence", "string_tensor", 4, "machine"): (0, "eed0e2f9fc180d6b37433c6e3d1d822d3328666013ab3c3ca723920958ec0ec8"),
    ("check-coherence", "string_tensor", 5, "text"): (0, "feaea4957e2333491255905393fc149b864af95db6cb81c9fa66f20ba15a9446"),
    ("check-coherence", "string_tensor", 5, "machine"): (0, "a144a740e47fa183a4e57724cc91af28fee1233217034ffd27d53b6700ad06c7"),
    ("check-tensor", "string_host", 3, "text"): (1, "c12d5c6e54ccb48ccf1cb4416dd03052b77f337b506fc98f8eee9154e386d167"),
    ("check-tensor", "string_host", 3, "machine"): (1, "3e1fd393455a8e08330dbdb2e6d6eb0199dde90a827b315443d6224be95889b5"),
    ("check-tensor", "string_host", 4, "text"): (1, "61eb2b7eef33ed1b1b1098f5bfe35c06f3cd9b78d5a258e85de5f2d83c441a74"),
    ("check-tensor", "string_host", 4, "machine"): (1, "635426f9e69fe2ac26b4067266a2fae90c35d367eb6ffb108aa2bdf86496c592"),
    ("check-tensor", "string_host", 5, "text"): (1, "ea72a88abc96e1dae34aaf4670c1838c3f6312f28eb8f5bddbaa588063e6a61b"),
    ("check-tensor", "string_host", 5, "machine"): (1, "b62d26e5b580e03d091d3e0d88d8001670ae271f1191d2735de72a014f4c7db7"),
    ("check-tensor", "string_tensor", 3, "text"): (0, "d219a1312ffcbea313da6fd21b1cff12621a10123b460f2066956ccde079a1e5"),
    ("check-tensor", "string_tensor", 3, "machine"): (0, "48ed7a7c24dbd37072c8cca0007c6db3e8cd51bbfc2cdced2e390b0f26cb994c"),
    ("check-tensor", "string_tensor", 4, "text"): (0, "e5724bac47add8f44cdcf04a8e14d48ee948f85d00d90ce645362fe48613ca72"),
    ("check-tensor", "string_tensor", 4, "machine"): (0, "54333c9806ad5eb20e44453a5c9d6025d52934a84c7157802ed6f0e0fba9cbf1"),
    ("check-tensor", "string_tensor", 5, "text"): (0, "75a09978d5781e01fef6a2f9b98998f797ca2de0719f3433f7de15f7f6e9ae6b"),
    ("check-tensor", "string_tensor", 5, "machine"): (0, "0d7cf397d9348874eb8a7636d1888b167229b37a56e4b95dc2b896f77d4da8c2"),
    ("descend", "string_host", 3, "text"): (0, "f12d2d83909365f96470d4cd0fa3e3c442bf88ea35c61101d6ea8ad813e006e3"),
    ("descend", "string_host", 3, "machine"): (0, "b897247962f8f98bea383e8bbb85e37119808283cf41dbe22576c13d5869c84f"),
    ("descend", "string_host", 4, "text"): (0, "32e7e0eb99fe76132619b1ae1cdfe708ded35242d1533226598b9edb08db0b46"),
    ("descend", "string_host", 4, "machine"): (0, "a28e289140a8bc5f6674314b76d2f8062edd9939a531f7f8094723e9663178ec"),
    ("descend", "string_host", 5, "text"): (0, "a8e49e9a051cf03aa26e1053a82ee8b37a40f17e5da556a6913bc94fa349f812"),
    ("descend", "string_host", 5, "machine"): (0, "b7379b9df6781e8815d81c6af8801efe73b6c030a923ec701a281a6140cccfb3"),
    ("descend", "string_tensor", 3, "text"): (0, "a575d0ff7a01ea63d5acd4c6c7f3d1cc60ab1d4d20db7393fc46cb9dacf8da43"),
    ("descend", "string_tensor", 3, "machine"): (0, "3eab00db7d683fd08dc085264849a5feced3f2b342bccd99e8119374b6b7293a"),
    ("descend", "string_tensor", 4, "text"): (0, "0ad9003b1bf9133c4b93d8d425496e8b83cacae87e62e368e98e4f543dbb90c8"),
    ("descend", "string_tensor", 4, "machine"): (0, "63e3e34112d0125a90d208c0d70a20967fc50430d106056604298a3afda1a483"),
    ("descend", "string_tensor", 5, "text"): (0, "bb2e913047087c364568e97dbe6c1daecc360836f7bdbce0f5e860a35bb80860"),
    ("descend", "string_tensor", 5, "machine"): (0, "4f5f7a7475dc0f9dca1d48781107d6303965678f3ea5f5e6202ad9e9ae1a2279"),
    ("check-descendent-morphism", "string_host", 3, "text"): (2, "ba47b2c0a9b32bcf6f5909f924561a8e72158ffb7c4750d4ac03fb9bd533ca81"),
    ("check-descendent-morphism", "string_host", 3, "machine"): (2, "3408d93709634a61113d6e1196da51e609c17482a5b9543045a0a946a1fa9fbb"),
    ("check-descendent-morphism", "string_host", 4, "text"): (2, "19d4239adc09a0e9f9b6a4ccec0562adb3b7d02aa6bdc7566123303b1e0290e0"),
    ("check-descendent-morphism", "string_host", 4, "machine"): (2, "287d9ad043f24c3e4c476846158bec6cd9d7d5a32f29157ae9e984e79f104e0f"),
    ("check-descendent-morphism", "string_host", 5, "text"): (2, "31ca60bc56d2ea5e20cb4641c05a2698c5a66e95439da82b3fbf5b9b8291f929"),
    ("check-descendent-morphism", "string_host", 5, "machine"): (2, "f97298b1f9389dbba6794c0045139dcc664556dae3b9e39ccc4a843bc34d4ac4"),
    ("check-descendent-morphism", "string_tensor", 3, "text"): (0, "439b5905078bf81b7e85b0421a59efe4c3763edca1acb4ac6a782bd4826cd7f1"),
    ("check-descendent-morphism", "string_tensor", 3, "machine"): (0, "9472ebae4cab0e4906dc40d228764c7c9c653f06a7986a322cfcc2fa60af9e83"),
    ("check-descendent-morphism", "string_tensor", 4, "text"): (0, "cef9a3e451be23aa05d92dcdcddf95712732f2a5fe37dd696bb15d12e387a460"),
    ("check-descendent-morphism", "string_tensor", 4, "machine"): (0, "a56c9bac0261e9b5ac09f317657d8168af16a5d829389dc268bbf8f007b070fb"),
    ("check-descendent-morphism", "string_tensor", 5, "text"): (0, "1839685e25761822de1ac87750d2538a275becfe6fb1d1d98e6403a14a106e74"),
    ("check-descendent-morphism", "string_tensor", 5, "machine"): (0, "2d9888ff8fad404c952e66e330b5d7f40c70bd60ac514a91d09d0d3c2014737d"),
    ("deform", "string_host", 3, "text"): (2, "a19c0d8d46792dd70b1c5ebd74ba88d347cbfc2194d4f722f05594f8e03ec22a"),
    ("deform", "string_host", 3, "machine"): (2, "d26dc4806f73c6aedbc85719b8ad971758504e605791d5073be4575fa8c09a6a"),
    ("deform", "string_host", 4, "text"): (2, "3bd7f0a53cf0e274ce2e948e0946ad215a90095eac4cbfbc5e558fd3226d1ac7"),
    ("deform", "string_host", 4, "machine"): (2, "6d8929b7d8ddb684d46e565837488a6ba4c331abda4b120c89547794052374b5"),
    ("deform", "string_host", 5, "text"): (2, "3f28a5bf97320eecfd0e75ad8c20dae1c4f3a824d52eb5b001d2108d26ba762c"),
    ("deform", "string_host", 5, "machine"): (2, "405daa4130c0b1d8f5735fa113ae4d5cb0f849e7238c8e41ae88099abef76ef0"),
    ("deform", "string_tensor", 3, "text"): (0, "acac858a242a7f9da0270aaf2e76a42e3b1a5ece4bcb1636b5203de7582a2e10"),
    ("deform", "string_tensor", 3, "machine"): (0, "e3eae1865c4dd5eca77c01a6468019d812d02a8a1c5cd5c4fa55c59cc71a247c"),
    ("deform", "string_tensor", 4, "text"): (0, "eda13c5f926d9d128c023e513531ace98b826ff5bf57c8e01cc97b9817e73acd"),
    ("deform", "string_tensor", 4, "machine"): (0, "a6d66824f7e9cca34acaf2fec231e3d7f8ebb1993c386c69dc36b87141fec40b"),
    ("deform", "string_tensor", 5, "text"): (0, "f8b2174aa73f4ef1aa9594ed83f161ac4ec390caff4784ce1bb94609ce1416d9"),
    ("deform", "string_tensor", 5, "machine"): (0, "992f3d487c340c32d8fe2f55b4cbdb3f1335275c064571dea79715ccabe9637d"),
}


# check-lie and check-loday on every fixture that reaches the check
STRUCTURE = {
    ("check-lie", "adjoint_identity", 5, "text"): "b7d0a9a8af333ae24b2e674ea7a547fc182e2b945fc44ecb313c6b16f66ac693",
    ("check-lie", "adjoint_identity", 5, "machine"): "764b06f1d8d6be10bbc07fe9aeb54bc03072789c702529bfb232b4bd346a16f5",
    ("check-lie", "adjoint_identity", 6, "text"): "109fd260436eddb6e542de0e57b5d2bd1f45d5e2f74524413f505f2f63f276d8",
    ("check-lie", "adjoint_identity", 6, "machine"): "aa56cb9fc86714620b71b7cabbae491231e88a70c5ef8bb3393ea2b5da263653",
    ("check-lie", "adjoint_identity", 7, "text"): "65e13f86447b23c7476bfc7aa61c84851534e459c529d7a6447b3ae160095aac",
    ("check-lie", "adjoint_identity", 7, "machine"): "fe339a1682801dee23fe4a3a614713edad52f5d8fad25881baffb04e2b06769f",
    ("check-lie", "heisenberg", 5, "text"): "b51dff3df144d9d3a166aa7ea86b4cbafe5984c3f6581e07826822929064d19d",
    ("check-lie", "heisenberg", 5, "machine"): "d661767dba2a907636a906a393c4b6a53f1702553f450076b1ac78bdd1654988",
    ("check-lie", "heisenberg", 6, "text"): "ec947d8077c4954c0cf94906c77ac03afa535e65b73c21901c968035737a20ea",
    ("check-lie", "heisenberg", 6, "machine"): "d9b6b98098375b9fd291df9beca8a22ffba56ef9aef2bfff50f14d0f9b63f7e2",
    ("check-lie", "heisenberg", 7, "text"): "16d2b782edb1466069c4dd7c57abb5d8f0a56c3afc30cb723ffa16d7b2cd3ec4",
    ("check-lie", "heisenberg", 7, "machine"): "45483962d64c170b62cc909ced70dfe3dc47e125dd7da0787343743eeea45f33",
    ("check-lie", "morphism_quotient", 5, "text"): "ec929db253ed7a7e8904a8c13fcc35dbb50439d31cd32ad7ab81f176c901231a",
    ("check-lie", "morphism_quotient", 5, "machine"): "67425c98fa80848fd45cb29329da71499f806ea32ecc06667e34fca622656296",
    ("check-lie", "morphism_quotient", 6, "text"): "5e3aa5b1415db997eca0647d17309307ccd23cc15b232126ea5803f7ac2143af",
    ("check-lie", "morphism_quotient", 6, "machine"): "3b0ed67a831b6dd60d68a4ff33daf4f68f8655bb1d2bbbeae114d9d57ddc11be",
    ("check-lie", "morphism_quotient", 7, "text"): "02d33dbe79d98f2b66143d4c3a079b753cc6008fdadc7713ac1080b730ed7738",
    ("check-lie", "morphism_quotient", 7, "machine"): "fa9cc3ebb1e8ec020038203dd58a1a8f490f527cbdea0b5747f474bb98a3b840",
    ("check-lie", "noncoherent", 5, "text"): "beb5598a040652523ec429547719a49fa531a44ce05eb11d3b5548de0e1832c8",
    ("check-lie", "noncoherent", 5, "machine"): "ce2b79a83c43766e9b8844f75e76dff7effac1d0c3cb2f88ad253573b9f5608f",
    ("check-lie", "noncoherent", 6, "text"): "f82e1c3f767869d7ab8f04bf500acd084dc8f3bc9174b76a09bc4bf8c8ae3ea2",
    ("check-lie", "noncoherent", 6, "machine"): "54c97f636dfad6ea8e0d63ab7d033ae5b9e91d33db61edf5d730ef9ed4825ff1",
    ("check-lie", "noncoherent", 7, "text"): "4a41a7da506f3f9546cb75e53afd539953bbcd7e4bc182b66104366cd03119c0",
    ("check-lie", "noncoherent", 7, "machine"): "db60b286d63ba0e0f899fbf687f50b29b312a415720beaf08013b98e4262ff20",
    ("check-lie", "strict_centroid", 5, "text"): "6577e433838beac3ac902d118f112ff67717ecb375a8879a3badfbb967d38f35",
    ("check-lie", "strict_centroid", 5, "machine"): "c48052de2d6e6b5ada15cec64410fb33f0481e57782b2238fd29c166525a75a9",
    ("check-lie", "strict_centroid", 6, "text"): "63cfc7c54fce2502a5449c3fb4a9c1f2453d8d49b12611f995148a48af319372",
    ("check-lie", "strict_centroid", 6, "machine"): "7eb6c7e7ab784efdda8fc548784711b7901b2a4438485dc4e2ea24e2345a1e06",
    ("check-lie", "strict_centroid", 7, "text"): "a18bf1f4ee35c56e57c4e282f807d503727609fa4459f9680c1dcea38fffcb1b",
    ("check-lie", "strict_centroid", 7, "machine"): "8b2fd2d6522c5dfa1649c5efa4c5dd73da7b11916040c33aafa70374c5f95519",
    ("check-lie", "twoterm", 5, "text"): "32032567e728c934829a63dbbf7e031a17b15ceb64a022ef1b309dd46d554f11",
    ("check-lie", "twoterm", 5, "machine"): "9017dce10911fbc4749d98dd315157a4ce401022596ce55d5e81088016db8d76",
    ("check-lie", "twoterm", 6, "text"): "5fc00d31eb06ff0414c0dc729dfa5af308e9b92cc898c85633e869fee5fa7f99",
    ("check-lie", "twoterm", 6, "machine"): "093d812cbfc41c0e97a0560587e18ab7c4edf027c2075c96e4bdda854fb767e0",
    ("check-lie", "twoterm", 7, "text"): "a0e638973042def806bbb132afbf34af1dba8515d596b9c4dae9e655b8c0a5dc",
    ("check-lie", "twoterm", 7, "machine"): "6a5334f17091c1819a1d71e7cbac595f2bc929c70477765f36b71b414c86231d",
    ("check-loday", "adjoint_identity", 5, "text"): "eae1717d644570032df1c3c1149001f4b7b011d678935318e65f91814450ae77",
    ("check-loday", "adjoint_identity", 5, "machine"): "5db4f6d0617bb24931924fd858266bbd41acacaf57ee250eb03684554efc9e35",
    ("check-loday", "adjoint_identity", 6, "text"): "cb6937173e5cf6b1d166b73e5f7b2fa64c502ad36b683f82515c49ae3a7cd150",
    ("check-loday", "adjoint_identity", 6, "machine"): "037f767f29523953bef8e5cb3861cf196d238cfc844fa366831535fa22ce1f37",
    ("check-loday", "adjoint_identity", 7, "text"): "096aba961907c5ac12714b701960618b841c02c4a56cc6273892515751c7c313",
    ("check-loday", "adjoint_identity", 7, "machine"): "687728f98ec777b640b8891af9db72be09f3f605e1d5c5e29070b2073ca5ebaa",
    ("check-loday", "heisenberg", 5, "text"): "614b1e534c81a37207778e7213d5ec971b0baf950535d0d0705eb2bce584e912",
    ("check-loday", "heisenberg", 5, "machine"): "24117682698c129360425848d737e43143ea62848c94ad08b57cca65d7f8636f",
    ("check-loday", "heisenberg", 6, "text"): "15cda8ababcff84f2871670096654dccd44af077fbfb5dd3f65671bd008f8a85",
    ("check-loday", "heisenberg", 6, "machine"): "17b00228b4cce52e87273389b0f41ac5bb8901c5b27b7d6b84dd4f8ea60fe1de",
    ("check-loday", "heisenberg", 7, "text"): "d5460320113c4b2e6bd20d2ccaf3c7b572d8bd2503aa7e30987ab1440f94e236",
    ("check-loday", "heisenberg", 7, "machine"): "9b3c10fc7ed14d7cedeb7e62d5b07163027656c3f64080772973ef3e5414e9f7",
    ("check-loday", "loday_plain", 5, "text"): "0679ed635c69a6ee37da30319a30380e854173eba94eeda7de723bd714025acf",
    ("check-loday", "loday_plain", 5, "machine"): "4330b259f7a5f498a8f6d3b63ee7add2dcd8cebcb0bd57071cd045dfc1ac665a",
    ("check-loday", "loday_plain", 6, "text"): "b18728fd7cecdf4f4dd3d408865e6afd70eb95e9ce457ab39ba0ec0aa45aa9bf",
    ("check-loday", "loday_plain", 6, "machine"): "865ca641d69c0ba6f921cc77eb9c6eecd989ce18575e738c4762a54b66135c4c",
    ("check-loday", "loday_plain", 7, "text"): "910e5380afa0ef1e4b5bbabe92ee6a3a99f6a3f68b6eaba9e06fd47ce200bb1b",
    ("check-loday", "loday_plain", 7, "machine"): "e1303ecbc207f2a77d1f48d6fb0a043f846a343e9829a6eda25e0782b27bcff8",
    ("check-loday", "morphism_quotient", 5, "text"): "1642faf862217deee24c8eba76c1af60bafa03de9bc2c473321907c83fb4ee76",
    ("check-loday", "morphism_quotient", 5, "machine"): "8fb2c077679eabe204047e20b8835372c8137dea024a5cf88efdb53361449e63",
    ("check-loday", "morphism_quotient", 6, "text"): "372ac1e68953effc0b044305212e040730c49d1121db6c8c0a97ddbb045bb8c4",
    ("check-loday", "morphism_quotient", 6, "machine"): "62d0659fc576865f8ec3f3a270e53304ca3265aba6db7a9386ec3c42e8cfb6eb",
    ("check-loday", "morphism_quotient", 7, "text"): "6d271611f9b03a1be4f456e851172dbc7b49a63f5582b8bfc9c978b4b0bdf2e5",
    ("check-loday", "morphism_quotient", 7, "machine"): "6aceee1c21653897f19adaf8b62aa5692da56465d0ac752fe8e36fc1fb03718c",
    ("check-loday", "noncoherent", 5, "text"): "5a9c06fb41d9ec385d955faf2d663064248d38a604f017c1907eeaf71fcf46e1",
    ("check-loday", "noncoherent", 5, "machine"): "bc61dd35cf8bc2b4c1e9baa5b7d41adfecd6c35a7e82888dbd3f620276aa61d1",
    ("check-loday", "noncoherent", 6, "text"): "6d9150027554ce8908cd310a8975aaa20de4894df59a00b1e8dbeefecb33d54e",
    ("check-loday", "noncoherent", 6, "machine"): "81c509a05fb3f10c6668abdefb2029c72ff3e115d89f2603f878c34934f7b879",
    ("check-loday", "noncoherent", 7, "text"): "b85fff432f3a166d030617780e5378708b08b80b12fe377c33d511d2dbb9ef2f",
    ("check-loday", "noncoherent", 7, "machine"): "7307a5695783850820283392aefd079f5695882f32c3aaa8aafd335e35a9f98d",
    ("check-loday", "strict_centroid", 5, "text"): "402188a03b2a2fd780548916fece585ae461211288953c3688a388e380f591bd",
    ("check-loday", "strict_centroid", 5, "machine"): "0c59156a20d87b6c9a39ba97e2d314ef0d7eb657fb638d6cadbd77d74ac92ecf",
    ("check-loday", "strict_centroid", 6, "text"): "26dc04d91b9361641a3c620ea51f0709cfa2fe0c16bf02cbabf0d66a44d9d5a7",
    ("check-loday", "strict_centroid", 6, "machine"): "7fbd4ccef455bc3d4c7db3f92f2b6a63fbfb0f193986f3f2d550b0bc76c87d39",
    ("check-loday", "strict_centroid", 7, "text"): "e467098725f1696172bf7b60453ea9d9de460fe056c709efcf75cf9620ce72b2",
    ("check-loday", "strict_centroid", 7, "machine"): "d82d63a79c312cda4c8a27806ef5527613a54d90155ca978f6cc9e77ef0ab45a",
    ("check-loday", "twoterm", 5, "text"): "733d3681481e00b85bccb615f7e35a9c0f750909483fd4d5618d5229955a73a7",
    ("check-loday", "twoterm", 5, "machine"): "b0c20260c421241136c570d8576a730dd206aa094feac4f20c18425bbe55976d",
    ("check-loday", "twoterm", 6, "text"): "5280a1351522ed05de39ac4060f812a12f585cefff5adc52436d95ce12fb9000",
    ("check-loday", "twoterm", 6, "machine"): "a037d889ad940ff20ab8a7d9ab4c44d42cd3c168ab9b08ffa9f8b562f7f8f7c2",
    ("check-loday", "twoterm", 7, "text"): "944fb609dfb53a98d963dfbb1544f85980a10b5117bd99e8343fab2565a19aed",
    ("check-loday", "twoterm", 7, "machine"): "70838eb89b9b87717bf17096f94520a98b8632149897f65cf656a162d35e64cb",
}

# fractional action files, written to a temporary directory by the test: a
# basis change of solvable-plane (coherent), one of solvable-self (not
# coherent), and one of adjoint-rep-solv with 1/3 added to a constant (not
# an action, with non-integral residuals)
ACTION_FILES = {
    "coherent": """\
space B
  a -1
  b -1

space P
  p0 -1
  p1 -1

settings
  bound 4
  max_arity 3
  seed 0

brackets B symmetric
  2 : a b -> a : 2/1
  2 : a b -> b : 1/1

action B P
  1 1 : a ; p0 -> p1 : 1/1
  1 1 : a ; p1 -> p1 : 1/1
  1 1 : b ; p0 -> p1 : -3/2
  1 1 : b ; p1 -> p1 : -2/1
""",
    "noncoherent": """\
space A
  a0 -1

space B
  a -1
  b -1

settings
  bound 4
  max_arity 3
  seed 0

brackets B symmetric
  2 : a b -> a : -1/1
  2 : a b -> b : -1/1

action A B
  1 1 : a0 ; a -> a : 1/2
  1 1 : a0 ; a -> b : 1/2
  1 1 : a0 ; b -> a : 1/2
  1 1 : a0 ; b -> b : 1/2
""",
    "nonaction": """\
space B
  a -1
  b -1

settings
  bound 4
  max_arity 3
  seed 0

brackets B symmetric
  2 : a b -> a : -1/1

action B B
  1 1 : a ; a -> a : -1/1
  1 1 : a ; a -> b : 8/3
  1 1 : a ; b -> a : -2/3
  1 1 : a ; b -> b : 4/3
  1 1 : b ; a -> a : -1/3
  1 1 : b ; a -> b : 2/3
  1 1 : b ; b -> a : -2/3
  1 1 : b ; b -> b : 4/3
""",
}

# (exit code, stdout digest) of each action command on each file
ACTION = {
    ("check-action", "coherent", 3, "text"): (0, "936580b05d0ea932ab75c9365be5a5a33bc6b91aa835b2fbe904fb8cdb66b88a"),
    ("check-action", "coherent", 3, "machine"): (0, "11b15a828d8536a260d77e45327c75457ac6ec0ca2aea96c509441dbb2f05fcd"),
    ("check-action", "noncoherent", 3, "text"): (0, "2ec4346f01a28d0d2005172a56a34b693116effeb76b24b63a74dc7e0d2692ea"),
    ("check-action", "noncoherent", 3, "machine"): (0, "b6d08a18c21e432d8eb828fa85c9158cb8dfc861bc1ee8ce6974197633424f1b"),
    ("check-action", "nonaction", 3, "text"): (1, "00c4c99c17e063ac6001fd3a93ec40250c981c39a6a4d15031730c2a84a65d7b"),
    ("check-action", "nonaction", 3, "machine"): (1, "92e8d0399e767bdb0ad6c01800091411623a9656f8f654fa2f5e9f913e802cce"),
    ("check-coherence", "coherent", 3, "text"): (0, "4cdeb2c67ef8a2e38244159849203aca56d59958451e132983d80fe3368abdce"),
    ("check-coherence", "coherent", 3, "machine"): (0, "0297bbbcdc34acce13f4ad993e1ad7ff26c6cb3c0dfffd4c6646e7089f889684"),
    ("check-coherence", "noncoherent", 3, "text"): (1, "d5b57d2494a135f73c0bad95e036e0765bd272ffc9ec176e3d62f747b7bc0449"),
    ("check-coherence", "noncoherent", 3, "machine"): (1, "4c5d577e0f07d7f91ce36cd6bd58d00ac1fa03548b42c8db3ae6ac7e02c63dbf"),
    ("check-coherence", "nonaction", 3, "text"): (2, "604e83a5ccc533682b00dda219f7006dd456b0402785aa34983c40a7fe0680c0"),
    ("check-coherence", "nonaction", 3, "machine"): (2, "3d6c184fce9ae45c4d96085120a17a6f5d011b3f2a2302de592464b76ba2643c"),
    ("build-product", "coherent", 3, "text"): (0, "b5c860a4034cfa5bb1a19a75ca96118168d5453085f0ad2d4b435ba36b6a7ec8"),
    ("build-product", "coherent", 3, "machine"): (0, "5fbe07b6a4c75d09d27745feab2568da97ccca1cdf2efb46e926d9aefc32965d"),
    ("build-product", "noncoherent", 3, "text"): (0, "5179a4dcfc4155e790361d7714367c8b8fc899143de921933fbe4fcea7b0865b"),
    ("build-product", "noncoherent", 3, "machine"): (0, "6603f27c6f5aaea6c2374867738ff4f2466f17b5b5871af81eb7ceff4909bdcc"),
    ("build-product", "nonaction", 3, "text"): (2, "3298987171edb941c7a682be1456899108d33b1eaf9ba2fba10c8e97f04b8f08"),
    ("build-product", "nonaction", 3, "machine"): (2, "bc2464704d816e4abe1c2f90a9569c554f6a049fc28904dd96fd5034fba29e3f"),
    ("check-action", "coherent", 4, "text"): (0, "ba267695c468c77fc6a3a961d9d27f5da4252f7e65536eb61c7c914e2d94c25e"),
    ("check-action", "coherent", 4, "machine"): (0, "55399a2deaa77fb5da5a5f68f7dca8def882c62e202385ab78a69a9f5cfc1720"),
    ("check-action", "coherent", 5, "text"): (0, "9cb40c29c564348c4183644a41f85e038ba6503de7126b959bb6c915525a743f"),
    ("check-action", "coherent", 5, "machine"): (0, "a8fe9e901b1b24ed00146f3eeea492083692a2875254db7ed54fafcf0d51f55b"),
    ("check-action", "noncoherent", 4, "text"): (0, "2f4b2e9d8bbcf82699c1ceeba3d0f77195c63eb96d3df624b54d705091abbc2e"),
    ("check-action", "noncoherent", 4, "machine"): (0, "6160ef6e0ca5762298bfcdfa33c179c4d9c7bc2fbfe58714e817e4a49affd7ac"),
    ("check-action", "noncoherent", 5, "text"): (0, "8a1004fd81cf6d60adfe339984b727ca46fad9dbc9ba1086f617b2e7adecc140"),
    ("check-action", "noncoherent", 5, "machine"): (0, "561dd25b2289a2318cfc8ccada1e111a5f72671cee328ccc97ad108de6f17493"),
    ("check-action", "nonaction", 4, "text"): (1, "8958983e52ea397317c1d98ad2218a81359142f1858f88451aec6e73a49ca166"),
    ("check-action", "nonaction", 4, "machine"): (1, "dfb5e3df5fb6a3277e6d2e6658cd4ee03be141526e7ccdc0b5cf7fbcb5dc7646"),
    ("check-action", "nonaction", 5, "text"): (1, "b27e7a13b134dde1b3c6d48c7435432d9ad8b3f836a181a8e238fa0b951018ea"),
    ("check-action", "nonaction", 5, "machine"): (1, "97edee849fc259a1022b172f0e37d182dc22c2bdf23b61a2b881ca5f551d37ad"),
    ("check-coherence", "coherent", 4, "text"): (0, "f1be562d64072caeb94e41bbaa2eba1c48595b5495f8e77640e487796c6ea98b"),
    ("check-coherence", "coherent", 4, "machine"): (0, "705099922d507359c81c24acb1ba5a65100eab82a3b2eaca5152f0d11a8633ec"),
    ("check-coherence", "coherent", 5, "text"): (0, "4b27371635802bb2f638e5c2f0f2da749b9601675eb4cadf7d103dfc5608ca57"),
    ("check-coherence", "coherent", 5, "machine"): (0, "1172c88a759b2ae4045257017273a1c152dbfd517f0a1ec1fd8d3b97040f9b74"),
    ("check-coherence", "noncoherent", 4, "text"): (1, "c405e2d69c3642ea34dcaf3d88771bd769006f27a6dd07578832f28960ebecb6"),
    ("check-coherence", "noncoherent", 4, "machine"): (1, "e6362c17f56825f4842231c807f83cf9c9147c8ca49fa17eb6c749ceb5a71849"),
    ("check-coherence", "noncoherent", 5, "text"): (1, "a6fc7d362e02fc6797040e1248244507998d554246403d87f3c292c66d89972d"),
    ("check-coherence", "noncoherent", 5, "machine"): (1, "8fcf33aa69179b3406c47ad3e8f84285829b648eaa27781b8feb8a634bb533b2"),
    ("check-coherence", "nonaction", 4, "text"): (2, "640776190741a4283239591cee44b24274eedb87bac3dffd24d2302ec65ba255"),
    ("check-coherence", "nonaction", 4, "machine"): (2, "19e007ac7905ef2ce7939cc845b8f84acc98ef24fee0a13c4d4aad932d6474cb"),
    ("check-coherence", "nonaction", 5, "text"): (2, "e6aaeb8d74553f5fe065e60495f43c1edeb50ba4ab0895c3e0ce2cdd81e26595"),
    ("check-coherence", "nonaction", 5, "machine"): (2, "546e8a8e83fa5a983cb458801cd21c2d349a9f3f279567b08484e484ca74711f"),
    ("build-product", "coherent", 4, "text"): (0, "57e1e51772f870486e8dea7024a6acbc3577daff36a7a456e692867f40c6b3ed"),
    ("build-product", "coherent", 4, "machine"): (0, "62b8cc201e2d7eeae0157f87648a7e4cea27ef80f3bee39260450b5dc38e05af"),
    ("build-product", "coherent", 5, "text"): (0, "0fe13321bde292647346572b04b745acccea00fc04af8a7fd6c876314648d70e"),
    ("build-product", "coherent", 5, "machine"): (0, "63e068ece2b80de931f9d3bf916d3d7dc0a1b220a54914fde2087334fe8f08b5"),
    ("build-product", "noncoherent", 4, "text"): (0, "437eddda9e5686ad15c7ff8c3b131dd85d93e2bf7024787d5b732d9a8842bbd3"),
    ("build-product", "noncoherent", 4, "machine"): (0, "db900a5890aafcc6b323f9f5ca9eee4ff05656b31e23189395d2dc0eba2dc93b"),
    ("build-product", "noncoherent", 5, "text"): (0, "4408e60d601213d6ea67c6d875c018d07fc55cc52a25f22d7827337ba393fc85"),
    ("build-product", "noncoherent", 5, "machine"): (0, "1c63a24459b26afd2754fa0506f2d9340416d4d3c573c5ffeb36a2cd7a5b01ec"),
    ("build-product", "nonaction", 4, "text"): (2, "bf942d18217189cd87da09d576ed6a2e7e14fc70f62f5520f7bc5aa2dab88fee"),
    ("build-product", "nonaction", 4, "machine"): (2, "7ef62044a14f3f938370fefb960c1b0bb80df046623051416f430ccc40aad5c5"),
    ("build-product", "nonaction", 5, "text"): (2, "29c521bbc069d4052c7a278cc984ef55a5d558d0b9c21ed676403291233e8af8"),
    ("build-product", "nonaction", 5, "machine"): (2, "4f0fed36774873d28c58578f54b47e892bd798745d6f0ca181d968fbea193fbc"),
}


# check-action, check-coherence and build-product on every fixture with an
# action section
ACTION_FIXTURES = {
    ("check-action", "abelian", 3, "text"): (0, "7b498fdf7f72bd64e608dbd7929719843215ac89b5424d515c8f48d179a9b599"),
    ("check-action", "abelian", 3, "machine"): (0, "ce595babd1158453471803bf141caf8a39d1fd0b60056cebc0385e13fbf300f6"),
    ("check-action", "abelian", 4, "text"): (0, "41c2647a87c297cd1a2251a05d9b5809c948f41d1e92aacfd3f1e2c8040d27c2"),
    ("check-action", "abelian", 4, "machine"): (0, "d793925b757218f0bff48bc08c1847297232f8229c7ab746bc5caa8a381b0872"),
    ("check-action", "abelian", 5, "text"): (0, "01a0693c06d21196f6df5b409f6e60224916b50f4a5f21ff6c56b01ba0c42c89"),
    ("check-action", "abelian", 5, "machine"): (0, "b3465d701a7a5d1e7ec69ac7c35786fe2e7573bd2c123842ec91eecfd1ac484b"),
    ("check-action", "abelian", 6, "text"): (0, "2414ec710c3466260791d8780f4c93ccbf07c873b8e820a4f0cdae08600654e2"),
    ("check-action", "abelian", 6, "machine"): (0, "ae4d3dccfa5fc882562f9f30428c169e4aca88a336f1c5e37ba55a6ca5a5178b"),
    ("check-action", "adjoint_identity", 3, "text"): (0, "f88088a9c6bcecddb001b5a5708051474814e9acbda6bd90bc90741cda835538"),
    ("check-action", "adjoint_identity", 3, "machine"): (0, "5bcaaa447dc2ded97a0f6b8250458da45df1a6b0aa04c74096c49e9730f4a2f6"),
    ("check-action", "adjoint_identity", 4, "text"): (0, "8e9c3b1e607ab431af67d83bdf6a054b9d4780d6a04d3abb4bf5e271478fa36f"),
    ("check-action", "adjoint_identity", 4, "machine"): (0, "a0ccff5b413987ce4102e9e597e987c8d29889842e4212b648091909ea163704"),
    ("check-action", "adjoint_identity", 5, "text"): (0, "a40b8c773a9bf24f16bd143d0b3f89d6fb2dabc9373f062ab6b9e22a3bb98390"),
    ("check-action", "adjoint_identity", 5, "machine"): (0, "84b407e0b6c0c9cf47acb9a1950162b08195fb8cc062455445edeb8a9fc3bf45"),
    ("check-action", "adjoint_identity", 6, "text"): (0, "af8694083ef90a26ddb33e8a52b912c421cf84950ff5989602626bae804b75df"),
    ("check-action", "adjoint_identity", 6, "machine"): (0, "115af0a48582bf4a1f82725c1ad0083bb290663c6d13dc3922e166472489202a"),
    ("check-action", "heisenberg", 3, "text"): (0, "0dca3417a3d5795305f5ad4a8e5ce5d0de921b29f35bbe5382f6bd7877028309"),
    ("check-action", "heisenberg", 3, "machine"): (0, "afb496da9896acdc09a79a36e3733cff1e7918250bf1783d1829a730578b3749"),
    ("check-action", "heisenberg", 4, "text"): (0, "97449a9e875242676906c6a01be586af73a268ae3ed55cb9a5b584aee7bad2de"),
    ("check-action", "heisenberg", 4, "machine"): (0, "b2f092a6f29c9112699b1a712886a7aefd0bcdb61b9a52aa8ff289d6b9e9624b"),
    ("check-action", "heisenberg", 5, "text"): (0, "b5403a498f2af60c4049cb5f046e46e2d2ec7fb5fd85ff36e77b5fb090d848ee"),
    ("check-action", "heisenberg", 5, "machine"): (0, "0de4b824480b23ddc5d100d6accff88d31cb2f8a919d7dab29c59666803fa510"),
    ("check-action", "heisenberg", 6, "text"): (0, "ff2869d057704431e880d95a40d6d5568114bacb9e3268eacf823dc9edbcc364"),
    ("check-action", "heisenberg", 6, "machine"): (0, "579730cca4b8378641df92bdfc3ba36de7fce300fe12944795a07eaf3d45231c"),
    ("check-action", "noncoherent", 3, "text"): (0, "dab588e42c4121dd5dc854c3815df91162c1cbbdca8e5571e02aea76d22f2f43"),
    ("check-action", "noncoherent", 3, "machine"): (0, "4925f1961738247b00ad6c06e6b96073607bce0e3c44728db76f99b6b138418d"),
    ("check-action", "noncoherent", 4, "text"): (0, "c8418f2e1885fa84422abc3435b921eb2b1827d248621d4fd533c4351aabf723"),
    ("check-action", "noncoherent", 4, "machine"): (0, "6bad33f13e480bf8db08fb60c3d08add8646fa2951ade12b846b3f46c356b8e4"),
    ("check-action", "noncoherent", 5, "text"): (0, "5c73e068115f3188b6b6fcdfa10a8c2f44e3e1e918985e709616eb6348054c31"),
    ("check-action", "noncoherent", 5, "machine"): (0, "c854d30f46f141f9094ccafa8dc61e968e0aa49fea209b0a9ad097e874ac54ee"),
    ("check-action", "noncoherent", 6, "text"): (0, "f6dd762efd35ecb9793ff5b7a9b0aacc1e6d4bfbbbe22dbffc4f7036ffdae983"),
    ("check-action", "noncoherent", 6, "machine"): (0, "4273e12abc90e926f42cd186b425fe17af3e17184569a0b05a6a5c75574e02e6"),
    ("check-coherence", "abelian", 3, "text"): (0, "bd591c3d98c29ab754a5f2131df024ccfa86e556f178563170ea00e2b784b94f"),
    ("check-coherence", "abelian", 3, "machine"): (0, "8e699e8d1f22b48c6d64cffbc19aa8246931d80c4508bbfca1e0085273a06ce3"),
    ("check-coherence", "abelian", 4, "text"): (0, "89ce83939231c63495e42171e69eb05ee4c412030741310a54c0cee10986d28d"),
    ("check-coherence", "abelian", 4, "machine"): (0, "a99c812e8056c625175368ab73b5ad4fdfdbcc23e30d660e8729708e68cd3e90"),
    ("check-coherence", "abelian", 5, "text"): (0, "55251a92fb45b4702f254155897667a726a8d8ee4f5a8d4cf46b317216403301"),
    ("check-coherence", "abelian", 5, "machine"): (0, "b8f8afe56fab343c77c87f05117709540d20fe887286136d8660b230e5765e38"),
    ("check-coherence", "abelian", 6, "text"): (0, "c587bed6d12e2afb92efe8c407bc3493edcd48386ba4c020c5bdbdee6f60253f"),
    ("check-coherence", "abelian", 6, "machine"): (0, "6fbec2c67fa210f9c9f3ca2c95fb76e7d1de6b04f843eb271407f4f23abe796b"),
    ("check-coherence", "adjoint_identity", 3, "text"): (0, "2b94d8b574b4b4a5119455e5fb681db7452e498b8c7c0e34eb6e5970573a554d"),
    ("check-coherence", "adjoint_identity", 3, "machine"): (0, "31b5e462ea375e3242ed517c50574491245b82972507946dfc3a7c77cd0b2630"),
    ("check-coherence", "adjoint_identity", 4, "text"): (0, "d009fdd139c8eec7c1fffe61ac0ba692d4627645a84f45670f51715e73ae5019"),
    ("check-coherence", "adjoint_identity", 4, "machine"): (0, "9b08b8161ca027b1a09d4ba247e070658cde4c2c2355842f60dae8697665e77b"),
    ("check-coherence", "adjoint_identity", 5, "text"): (0, "969252b66d895676ac6084885e7b7460d2f3d00bc295656261c0fdf27cc16333"),
    ("check-coherence", "adjoint_identity", 5, "machine"): (0, "f3172851cb3477b55d7b8431200d6d956019152ad238ebca633e4191b06fabc8"),
    ("check-coherence", "adjoint_identity", 6, "text"): (0, "14369de5732e33c257f021ef22905d624dd7562a9fb72c6982d0c34446c4c8d0"),
    ("check-coherence", "adjoint_identity", 6, "machine"): (0, "543136f4783310fc0a2037ebb74b540c8784c62a0f5c3c9e3c433fed60cdb70f"),
    ("check-coherence", "heisenberg", 3, "text"): (0, "b89083670be6de2e26185f5c555c2257f7476094f9d1a72034750fc0a8e92176"),
    ("check-coherence", "heisenberg", 3, "machine"): (0, "0cd5fdd96cc2577f8077ac762baa0aaf9957a71997e42033414a10707c3292eb"),
    ("check-coherence", "heisenberg", 4, "text"): (0, "8746968eb41985da34c351c3bf15d304cb65995a5227509051045638201a6ff7"),
    ("check-coherence", "heisenberg", 4, "machine"): (0, "d604ddc44f346d189f017f49b6b8b80366112373bb54a48028226817e84746ea"),
    ("check-coherence", "heisenberg", 5, "text"): (0, "8462a650ff8e5e760c028969c3662def43e9a5473118f0b9eca501f1eae0d669"),
    ("check-coherence", "heisenberg", 5, "machine"): (0, "09b21521716f0093c158efe24b2ab639ffc5ae0fa91a08e226a443ba4066a95f"),
    ("check-coherence", "heisenberg", 6, "text"): (0, "8ee03ec0bd4d77b4c977d5dff8e8e3b4c8b76b26c06c604e8d77ca28b23d50ce"),
    ("check-coherence", "heisenberg", 6, "machine"): (0, "db45e08033bc6cfb2b3dcd9cdf9ed91517991ae65337d2db50340fa99a490664"),
    ("check-coherence", "noncoherent", 3, "text"): (1, "4d647e9b1e8bfb8f5bba6e813d87490a379d3b34d72566c97ca37cc7bc2918f5"),
    ("check-coherence", "noncoherent", 3, "machine"): (1, "87478b98a5331d4164366381c8316bd2f2fb041dd2c4ee81f58f51b7df0f9098"),
    ("check-coherence", "noncoherent", 4, "text"): (1, "a5ead31c8952d679ddf057e687eede0833f3107dc1eb49e951dc37a3eca5451c"),
    ("check-coherence", "noncoherent", 4, "machine"): (1, "be99923e714ca7190ad42a241e92253b1ef2f94814d99fb4512fcc40ab81f972"),
    ("check-coherence", "noncoherent", 5, "text"): (1, "79fb7cef6357c433ae25e88b2fda97e7694a5227c74b020be4204fcd2d913714"),
    ("check-coherence", "noncoherent", 5, "machine"): (1, "e7343550efa4082783ec86b12e92686b84df6686c1a0c1ac97d14cb2a2590f4f"),
    ("check-coherence", "noncoherent", 6, "text"): (1, "55d5eb737689c304e7904e5d9fba2d3c42ab25a254eca8d8adf25b7824549448"),
    ("check-coherence", "noncoherent", 6, "machine"): (1, "4f46c4a638058ebab01b8c41c78c7f014fe3eaa774ac32517c0d8dde6ffc9eae"),
    ("build-product", "abelian", 3, "text"): (0, "9799c8130f257b0222e8267e598e8e0f2be2e56cc789bbb309968176ad136307"),
    ("build-product", "abelian", 3, "machine"): (0, "cc83ce9528e7b9c6ec38897f829a7d643f8e80bccea9c10e938b0f38a126c683"),
    ("build-product", "abelian", 4, "text"): (0, "f74f316ab3e8536caa5e39d45c7f94659b7bc568f71f333945052300cbe1c619"),
    ("build-product", "abelian", 4, "machine"): (0, "22612dd7ff005d6247251b468bb93b45c483be5f150b5ea68819f1781ddb9821"),
    ("build-product", "abelian", 5, "text"): (0, "46118b0335c59fb9adcac9762bdde98c03bbd2e00aad47b4e0f672ee5e92828a"),
    ("build-product", "abelian", 5, "machine"): (0, "9069d0d97f478687a9d4470141e73535b42c69a07575d7ef6c9bf940ab16fa09"),
    ("build-product", "abelian", 6, "text"): (0, "ffd773c93a7ec88af936217dcd85f05141600cbf93abd60251720b718a6151fc"),
    ("build-product", "abelian", 6, "machine"): (0, "80929b5c8e28648c5c5b8ffe32ab2bceb233a3e178abc5ecf13b69836576218e"),
    ("build-product", "adjoint_identity", 3, "text"): (0, "1f9893332ab1d09139468caca8c3628fae659aa9a70f082964c277059938c89b"),
    ("build-product", "adjoint_identity", 3, "machine"): (0, "bc347ebd435e739acb64127159ae222ef6e8ac664ffe3ea6bcbdf07602809676"),
    ("build-product", "adjoint_identity", 4, "text"): (0, "cf1c2690d870d74981dc5bea45d40a76482212f7150846ce432a4a08d0f69e9b"),
    ("build-product", "adjoint_identity", 4, "machine"): (0, "456b0acacb04b32807255f2252edeab5d3013df1c5cc90ccfb98a5cba13c630e"),
    ("build-product", "adjoint_identity", 5, "text"): (0, "c7f778cf4354a09f3224081754b33047cf28097b438acc845eca51b0876d2dc1"),
    ("build-product", "adjoint_identity", 5, "machine"): (0, "1bbc9d80a9a3cff9b71b12698456cd0eb937b8d8e62cec82abd76c7b3b5f8f05"),
    ("build-product", "adjoint_identity", 6, "text"): (0, "a59da4fa25fd1782fe6b4e6144ab7ba9d99b4416022fabe399bdbde6a5d8a982"),
    ("build-product", "adjoint_identity", 6, "machine"): (0, "a733410eb9cced3357926f64d6b5c1683dc173daea41d26c143cb9e485d564e0"),
    ("build-product", "heisenberg", 3, "text"): (0, "7db656d3285c4e905d2ded9d1df757ccc7cde9e9420407ce54dbbfa4335a7599"),
    ("build-product", "heisenberg", 3, "machine"): (0, "df0e06c3d4f880743d0a1620582debe2205bab1cb35c9846f266c475f8bb67c1"),
    ("build-product", "heisenberg", 4, "text"): (0, "d7977d5dc6352391e23a3d9f042a35d81bcd7131639411cd2afc82d8fbf1c4f8"),
    ("build-product", "heisenberg", 4, "machine"): (0, "12b994a0faa56ff18f4fa6d4946b79ce3243b5370af7e6eb62a43b9fe9da1a37"),
    ("build-product", "heisenberg", 5, "text"): (0, "5ef3778bb2a660a03c05312d3af7f02f13978b13d5c544f761d069bc1aa663f4"),
    ("build-product", "heisenberg", 5, "machine"): (0, "2802ce66556dc3336155d775d7a050e668516030b481afcc33219f833a930ed7"),
    ("build-product", "heisenberg", 6, "text"): (0, "d1ac55fa4edddecae76e51eb85a163a9cad350cdc2493a5da053c45e82835b8c"),
    ("build-product", "heisenberg", 6, "machine"): (0, "738e79080b778578b4f996a84736fb4befca58b11721f874c2aad1b6addc0974"),
    ("build-product", "noncoherent", 3, "text"): (0, "be018980adb692fc4e4e05d5bf361090be7407f9143efc764bbbc8265bf3e2ea"),
    ("build-product", "noncoherent", 3, "machine"): (0, "2f9317204271baabd0db447fd4bede82063398c2495eaa043f6d130062ddb52c"),
    ("build-product", "noncoherent", 4, "text"): (0, "3751f7019f0d5728a5e4de881d5abfedc38bc17c22b788df750428671ac67ef7"),
    ("build-product", "noncoherent", 4, "machine"): (0, "9315e094fd973bb1157b7ae07b2e937bd3b7b4667b934eee3b92e4c919e67863"),
    ("build-product", "noncoherent", 5, "text"): (0, "e402a6415527f95a027d2fc89bcea1e1d30883f15b0f6afa66a02e42e9a0c7d2"),
    ("build-product", "noncoherent", 5, "machine"): (0, "203ea1609e9dff51407111d07689a11a1198544fcf05c4e8ff1952da9da08fd5"),
    ("build-product", "noncoherent", 6, "text"): (0, "f343e157bad9d6685f273bbca954cbd096bc66f6b9ad76b89bf019c124eae2e2"),
    ("build-product", "noncoherent", 6, "machine"): (0, "b3398bc4ef301d0cf646e96205acbe46a006a1c8798e860743db6cfaa041c3d2"),
}

# failing strict files, written to a temporary directory by the test: a
# unary bracket with maps that are no chain maps, a ternary bracket, and the
# solvable plane with the projection onto its ideal
STRICT_FILES = {
    "chain": """\
space C
  u -1
  v -1
  w 0
  s 0

settings
  bound 4
  max_arity 3
  seed 0

brackets C symmetric
  1 : u -> w : 1/1
  1 : v -> w : -2/3

tensor C C
  1 : u -> u : 1/1
  1 : u -> v : 1/1
  1 : w -> s : 1/1

morphism C C
  1 : u -> u : 1/2
  1 : v -> u : 1/1
  1 : s -> s : 1/1
""",
    "ternary": """\
space T
  t 0
  r 0
  c 1

settings
  bound 4
  max_arity 3
  seed 0

brackets T symmetric
  3 : t t t -> c : 1/1
  3 : t t r -> c : -1/2

tensor T T
  1 : t -> t : 1/2
  1 : t -> r : 1/1
  1 : c -> c : 1/1

morphism T T
  1 : t -> t : 1/2
  1 : r -> t : 1/1
  1 : c -> c : 1/3
""",
    "projection": """\
space B
  a -1
  b -1

settings
  bound 4
  max_arity 3
  seed 0

brackets B symmetric
  2 : a b -> b : 1/1

tensor B B
  1 : b -> b : 1/1

morphism B B
  1 : b -> b : 1/1
""",
}

# (exit code, stdout digest) of each strict command on each failing file
STRICT = {
    ("adjoint-strict", "chain", 3, "text"): (1, "a526ad05999d14d16b962e8f1573d636d73b5ffc03f2dc04abac22d257f1fbab"),
    ("adjoint-strict", "chain", 3, "machine"): (1, "ddae36f97676e5a82ff00e8ed4b6068fa00bb8943496a8a1fc38221fdb11f800"),
    ("adjoint-strict", "projection", 3, "text"): (1, "58ccf18938ea38efb7bb1863fd117a3a52fa1ed6cc74a9e75ade3d619968d21b"),
    ("adjoint-strict", "projection", 3, "machine"): (1, "29bf88877addbbf479c9713e26fede757e1e7108b736c73fb38e6f3f61ee9fd4"),
    ("adjoint-strict", "ternary", 3, "text"): (1, "1bf373be4a4a89b0568d29ce822f520abca863dcb66fbfcd08cdfb4dd5e07d5e"),
    ("adjoint-strict", "ternary", 3, "machine"): (1, "3709c6cb12c66a5760ca4cc511e00ed1b7171a14a3ffc6fb49440f9ca2a0ccc0"),
    ("centroid", "chain", 3, "text"): (1, "fb1cab4d046f4626d8cf5da4c01cc39a20e1b1eb3010a7240b4863fe26933a98"),
    ("centroid", "chain", 3, "machine"): (1, "5d18679b593c40c50f5145efaf7be78bb512f05e92f2d8d33628069935ade524"),
    ("centroid", "projection", 3, "text"): (1, "a424644a98b08e78f5e69c0418ffb77e29d7ff3ee17ee35c4f48607cd0cd3460"),
    ("centroid", "projection", 3, "machine"): (1, "af09b101eb66f8f4b66b9312f134381e251243c00c02254a3a4c8cdff9f85865"),
    ("centroid", "ternary", 3, "text"): (1, "41f66c9b3306b1de239811f6bf46bb06cc9ea75ffc242cdf5a54f0b380821b30"),
    ("centroid", "ternary", 3, "machine"): (1, "12a9856b0c2e09c002fdaac804fad6fd95c2fd1263450e4ce796c152c22383ff"),
}


def run_digest(args):
    """The exit code of a CLI run and the sha256 of its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def stdout_digest(args, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, digest = run_digest(args)
    assert code == 0
    return digest


@pytest.mark.parametrize("fixture,bound", sorted(DEFORM))
def test_deform_report_bytes_are_pinned(fixture, bound, monkeypatch):
    args = ["deform", f"tests/fixtures/{fixture}.lif", "--bound", str(bound)]
    assert stdout_digest(args, monkeypatch) == DEFORM[fixture, bound]


def cohomology_args(fixture, bound, degree, weight):
    return [
        "cohomology", f"tests/fixtures/{fixture}.lif", "--bound", str(bound),
        "--degree", str(degree), "--weight", str(weight),
    ]


@pytest.mark.parametrize("fixture,degree,weight", sorted(COHOMOLOGY))
def test_cohomology_report_bytes_are_pinned(fixture, degree, weight, monkeypatch):
    args = cohomology_args(fixture, 5, degree, weight)
    assert stdout_digest(args, monkeypatch) == COHOMOLOGY[fixture, degree, weight]


@pytest.mark.parametrize("fixture,bound,degree,weight", sorted(COHOMOLOGY_EMPTY))
def test_empty_cohomology_piece_bytes_are_pinned(fixture, bound, degree, weight, monkeypatch):
    args = cohomology_args(fixture, bound, degree, weight)
    assert stdout_digest(args, monkeypatch) == COHOMOLOGY_EMPTY[fixture, bound, degree, weight]


@pytest.mark.parametrize("fixture,degree,weight", sorted(COHOMOLOGY_BOUND_6))
def test_bound_6_cohomology_report_bytes_are_pinned(fixture, degree, weight, monkeypatch):
    args = cohomology_args(fixture, 6, degree, weight)
    assert stdout_digest(args, monkeypatch) == COHOMOLOGY_BOUND_6[fixture, degree, weight]


@pytest.mark.parametrize("fixture,degree,weight", sorted(COHOMOLOGY_BOUND_7))
def test_bound_7_cohomology_report_bytes_are_pinned(fixture, degree, weight, monkeypatch):
    args = cohomology_args(fixture, 7, degree, weight)
    assert stdout_digest(args, monkeypatch) == COHOMOLOGY_BOUND_7[fixture, degree, weight]


@pytest.mark.parametrize("command,fixture,bound", sorted(MORPHISM))
def test_morphism_report_bytes_are_pinned(command, fixture, bound, monkeypatch):
    args = [command, f"tests/fixtures/{fixture}.lif", "--bound", str(bound)]
    assert stdout_digest(args, monkeypatch) == MORPHISM[command, fixture, bound]


@pytest.mark.parametrize("command,fixture,bound,fmt", sorted(TENSOR))
def test_tensor_report_bytes_are_pinned(command, fixture, bound, fmt, monkeypatch):
    args = [command, f"tests/fixtures/{fixture}.lif", "--bound", str(bound), "--format", fmt]
    assert stdout_digest(args, monkeypatch) == TENSOR[command, fixture, bound, fmt]


@pytest.mark.parametrize("command,fixture,bound,fmt", sorted(STRUCTURE))
def test_structure_report_bytes_are_pinned(command, fixture, bound, fmt, monkeypatch):
    args = [command, f"tests/fixtures/{fixture}.lif", "--bound", str(bound), "--format", fmt]
    assert stdout_digest(args, monkeypatch) == STRUCTURE[command, fixture, bound, fmt]


@pytest.mark.parametrize("command,fixture,bound,fmt", sorted(THEOREM))
def test_theorem_report_bytes_are_pinned(command, fixture, bound, fmt, monkeypatch):
    path = f"tests/fixtures/theorem/{fixture}.lif"
    args = [command, path, "--bound", str(bound), "--format", fmt]
    if command == "check-loday":
        args += ["--space", "V"]
    assert stdout_digest(args, monkeypatch) == THEOREM[command, fixture, bound, fmt]


@pytest.mark.parametrize("command,fixture,bound,fmt", sorted(STRING))
def test_string_report_bytes_are_pinned(command, fixture, bound, fmt, monkeypatch):
    monkeypatch.chdir(ROOT)
    path = f"tests/fixtures/string/{fixture}.lif"
    args = [command, path, "--bound", str(bound), "--format", fmt]
    assert run_digest(args) == STRING[command, fixture, bound, fmt]


@pytest.mark.parametrize("command,name,bound,fmt", sorted(ACTION))
def test_action_report_bytes_are_pinned(command, name, bound, fmt, tmp_path, monkeypatch):
    for file_name, text in ACTION_FILES.items():
        (tmp_path / f"{file_name}.lif").write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    args = [command, f"{name}.lif", "--bound", str(bound), "--format", fmt]
    assert run_digest(args) == ACTION[command, name, bound, fmt]


@pytest.mark.parametrize("command,fixture,bound,fmt", sorted(ACTION_FIXTURES))
def test_action_fixture_report_bytes_are_pinned(command, fixture, bound, fmt, monkeypatch):
    monkeypatch.chdir(ROOT)
    args = [command, f"tests/fixtures/{fixture}.lif", "--bound", str(bound), "--format", fmt]
    assert run_digest(args) == ACTION_FIXTURES[command, fixture, bound, fmt]


@pytest.mark.parametrize("command,name,bound,fmt", sorted(STRICT))
def test_strict_report_bytes_are_pinned(command, name, bound, fmt, tmp_path, monkeypatch):
    for file_name, text in STRICT_FILES.items():
        (tmp_path / f"{file_name}.lif").write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    args = [command, f"{name}.lif", "--bound", str(bound), "--format", fmt]
    assert run_digest(args) == STRICT[command, name, bound, fmt]
