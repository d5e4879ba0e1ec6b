import argparse
import builtins
import hashlib
import io
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import linfty.tensor as tensor_module
from linfty import corpus
from linfty.cli import COMMANDS, _canonical_args, build_parser, main
from linfty.fileformat import parse_path
from linfty.tensor import check_embedding_explicit, deformation_complex
from paper import theorem_file

FIXTURES = Path(__file__).parent / "fixtures"

# every (command, fixture, options, expected exit code) the shipped corpus covers
CASES = [
    ("check-lie", "heisenberg.lif", [], 0),
    ("check-lie", "twoterm.lif", [], 0),
    ("check-lie", "abelian.lif", ["--space", "E"], 0),
    ("check-loday", "loday_plain.lif", [], 0),
    ("check-loday", "heisenberg.lif", ["--space", "V"], 0),
    ("check-morphism", "morphism_quotient.lif", [], 0),
    ("check-action", "heisenberg.lif", [], 0),
    ("check-action", "adjoint_identity.lif", [], 0),
    ("check-action", "abelian.lif", [], 0),
    ("check-coherence", "heisenberg.lif", [], 0),
    ("check-coherence", "adjoint_identity.lif", [], 0),
    ("build-product", "heisenberg.lif", [], 0),
    ("check-tensor", "heisenberg.lif", [], 0),
    ("check-tensor", "adjoint_identity.lif", [], 0),
    ("descend", "heisenberg.lif", [], 0),
    ("check-descendent-morphism", "heisenberg.lif", [], 0),
    ("check-descendent-morphism", "adjoint_identity.lif", [], 0),
    ("adjoint-strict", "strict_centroid.lif", [], 0),
    ("centroid", "strict_centroid.lif", [], 0),
    ("deform", "heisenberg.lif", ["--bound", "3"], 0),
    ("deform", "adjoint_identity.lif", ["--bound", "3"], 0),
    ("cohomology", "heisenberg.lif", ["--bound", "2", "--degree", "0", "--weight", "2"], 0),
]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


@pytest.mark.parametrize("command,fixture,options,expected", CASES)
def test_fixture_commands(command, fixture, options, expected, capsys):
    code, out = run_cli([command, str(FIXTURES / fixture), *options], capsys)
    assert code == expected, out
    assert "verdict: PASS" in out


def test_reports_are_byte_stable(capsys):
    for command, fixture, options, _ in CASES:
        args = [command, str(FIXTURES / fixture), *options]
        _, first = run_cli(args, capsys)
        _, second = run_cli(args, capsys)
        assert first == second, (command, fixture)


def test_machine_format_stable_and_distinct(capsys):
    args = ["check-lie", str(FIXTURES / "heisenberg.lif"), "--format", "machine"]
    _, first = run_cli(args, capsys)
    _, second = run_cli(args, capsys)
    assert first == second
    assert "verdict PASS" in first and "verdict: PASS" not in first


def test_failing_identity_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.lif"
    bad.write_text(
        "space X\n  u -1\n  w 0\n  s 1\n\nsettings\n  bound 3\n  max_arity 2\n"
        "  seed 0\n\nbrackets X symmetric\n  1 : u -> w : 1/1\n  1 : w -> s : 1/1\n"
    )
    code, out = run_cli(["check-lie", str(bad)], capsys)
    assert code == 1
    assert "verdict: FAIL" in out
    assert "residuals: 1" in out


@pytest.mark.parametrize("weight", ["7", "0", "-1"])
def test_cohomology_weight_outside_the_truncation_exits_two(weight, capsys, monkeypatch):
    # the weight is refused before the complex is built
    built = []
    real = tensor_module.DeformationComplex.__init__

    def counting(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(tensor_module.DeformationComplex, "__init__", counting)
    args = ["--bound", "3", "--degree", "2", "--weight", weight]
    code, out = run_cli(["cohomology", str(FIXTURES / "heisenberg.lif"), *args], capsys)
    assert built == []
    assert code == 2
    errors = [line for line in out.splitlines() if line.startswith("error:")]
    assert errors == ["error: cohomology weight must lie in 1..3, the truncated range"]
    assert "verdict" not in out and "piece_dim" not in out


def test_parse_error_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.lif"
    bad.write_text("space X\n  u -1\n\nbrackets X symmetric\n  1 : u -> u : 1/0\n")
    code, out = run_cli(["check-lie", str(bad)], capsys)
    assert code == 2
    assert "error:" in out


def test_arity_zero_component_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.lif"
    bad.write_text((FIXTURES / "twoterm.lif").read_text() + "\nmorphism C C\n  0 : -> w : 1/1\n")
    code, out = run_cli(["check-lie", str(bad)], capsys)
    assert code == 2
    assert "arity must be positive" in out


def test_arity_zero_action_entry_exits_two_with_its_line(capsys, tmp_path):
    bad = tmp_path / "bad.lif"
    bad.write_text("space E\n  x 0\nspace V\n  v 0\n  w 1\naction E V\n  0 1 : ; v -> w : 1/1\n")
    code, out = run_cli(["check-action", str(bad)], capsys)
    assert code == 2
    assert "error: line 7: both blocks of a component must be nonempty" in out


def test_empty_space_exits_two_with_its_line(capsys, tmp_path):
    bad = tmp_path / "bad.lif"
    bad.write_text("space E\n  x 0\nspace V\n")
    code, out = run_cli(["check-lie", str(bad)], capsys)
    assert code == 2
    assert "error: line 3: space 'V' has an empty basis" in out


def test_non_utf8_input_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.lif"
    bad.write_bytes(b"space V\n  p \xff\n")
    code = main(["check-lie", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    errors = [line for line in captured.out.splitlines() if line.startswith("error:")]
    assert errors == ["error: input is not UTF-8: undecodable byte at offset 12"]
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("command", ["check-lie", "check-loday"])
def test_bracket_above_max_arity_exits_two_with_its_line(command, capsys, tmp_path):
    # the settings follow the brackets: the line is the first arity-2 entry's
    bad = tmp_path / "bad.lif"
    bad.write_text(
        "space V\n  a 0\n  b 1\nbrackets V symmetric\n  2 : a a -> b : 1/1\n"
        "  1 : a -> b : 1/2\nsettings\n  max_arity 1\n"
    )
    code, out = run_cli([command, str(bad)], capsys)
    assert code == 2
    errors = [row for row in out.splitlines() if row.startswith("error:")]
    assert errors == ["error: line 5: bracket arity 2 exceeds max_arity 1"]


@pytest.mark.parametrize("command", ["check-lie", "check-loday"])
@pytest.mark.parametrize(
    "text,error",
    [
        ("settings\n  bound 3\n", "error: the file declares no space"),
        ("# no sections\n", "error: the file declares no space"),
        (
            "space A\n  a 0\nspace B\n  b 0\n",
            "error: several candidate spaces (A, B); pick one with --space",
        ),
    ],
    ids=["settings", "comment", "several"],
)
def test_a_structure_check_needs_one_candidate_space(command, text, error, capsys, tmp_path):
    path = tmp_path / "spaces.lif"
    path.write_text(text)
    code, out = run_cli([command, str(path)], capsys)
    assert code == 2
    assert [row for row in out.splitlines() if row.startswith("error:")] == [error]


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.lif")), ids=lambda p: p.name)
def test_main_reads_its_input_once(path, capsys, monkeypatch):
    opened = []
    real = builtins.open

    def counted(file, *args, **kwargs):
        opened.append(file)
        return real(file, *args, **kwargs)

    # pathlib opens through io.open, the builtin through builtins.open
    monkeypatch.setattr(builtins, "open", counted)
    monkeypatch.setattr(io, "open", counted)
    run_cli(["check-action", str(path)], capsys)
    assert opened == [str(path)]


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_digest_is_the_sha256_of_the_input_bytes(fmt, capsys):
    for path in sorted(FIXTURES.glob("*.lif")):
        _, out = run_cli(["check-lie", str(path), "--format", fmt], capsys)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert f"digest{':' if fmt == 'text' else ''} {digest}" in out.splitlines(), path.name


def _without_input_lines(out: str) -> list[str]:
    return [row for row in out.splitlines() if not row.startswith(("input", "digest"))]


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.lif")), ids=lambda p: p.name)
def test_crlf_input_gives_the_lf_report(path, capsys, tmp_path):
    # the bytes are decoded as they are, so a line may end in CR LF
    crlf = tmp_path / path.name
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    for command in COMMANDS:
        if command in ("deform", "cohomology"):
            continue
        lf_code, lf_out = run_cli([command, str(path)], capsys)
        crlf_code, crlf_out = run_cli([command, str(crlf)], capsys)
        assert crlf_code == lf_code, command
        assert _without_input_lines(crlf_out) == _without_input_lines(lf_out), command
        assert crlf_out != lf_out


def test_missing_file_exits_two(capsys, tmp_path):
    code, out = run_cli(["check-lie", str(tmp_path / "absent.lif")], capsys)
    assert code == 2


def test_missing_section_exits_two(capsys):
    code, out = run_cli(["check-tensor", str(FIXTURES / "twoterm.lif")], capsys)
    assert code == 2


def test_noncoherent_tensor_check_exits_two(capsys, tmp_path):
    noncoherent = tmp_path / "noncoherent.lif"
    noncoherent.write_text(
        "space E\n  x -1\n\nspace V\n  p -1\n  q -1\n  z -1\n\n"
        "settings\n  bound 4\n  max_arity 3\n  seed 0\n\n"
        "brackets V symmetric\n  2 : p q -> z : 1/1\n\n"
        "action E V\n  1 1 : x ; p -> p : 1/1\n  1 1 : x ; q -> q : -1/1\n\n"
        "tensor V E\n"
    )
    code, out = run_cli(["check-coherence", str(noncoherent)], capsys)
    assert code == 1
    code, out = run_cli(["check-tensor", str(noncoherent)], capsys)
    assert code == 2


def cohomology_pieces(path, bound, capsys):
    """``(degree, weight, text report, machine report)`` of every nonempty
    piece, each exit code 0."""
    sf = parse_path(path)
    complex_ = deformation_complex(sf.embedding_tensor(), sf.action_family(), bound)
    out = []
    for degree, weight in sorted(complex_.bigrading):
        args = ["cohomology", str(path), "--bound", str(bound)]
        args += ["--degree", str(degree), "--weight", str(weight)]
        reports = []
        for fmt in ("text", "machine"):
            code, report = run_cli([*args, "--format", fmt], capsys)
            assert code == 0, report
            reports.append(report)
        out.append((degree, weight, *reports))
    return out


def test_cohomology_labels_the_page_where_d1_raises_a_weight_by_two(capsys, tmp_path):
    # the identity tensor of the adjoint representation of a host whose only
    # bracket is ternary: every nonzero of d1 raises the weight by two, so
    # its weight-one part is zero and the E1 page is the whole piece
    ternary = tmp_path / "ternary_identity.lif"
    ternary.write_text(
        "space E\n  t 0\n  c 1\n\nspace V\n  t 0\n  c 1\n\n"
        "settings\n  bound 4\n  max_arity 3\n  seed 0\n\n"
        "brackets E symmetric\n  3 : t t t -> c : 1/1\n\n"
        "action E V\n  2 1 : t t ; t -> c : 1/1\n\n"
        "tensor V E\n  1 : t -> t : 1/1\n  1 : c -> c : 1/1\n"
    )
    pieces = cohomology_pieces(ternary, 4, capsys)
    assert len(pieces) == 18
    for _, _, text, machine in pieces:
        assert "verdict: PASS\npage: E1\n" in text and "verdict PASS\npage E1\n" in machine
        dim = re.search(r"^piece_dim: (\d+)$", text, re.M).group(1)
        assert "rank_out: 0\n" in text and f"kernel_dim: {dim}\n" in text
    # d1 raises every weight of the strict heisenberg fixture by exactly one
    for _, _, text, machine in cohomology_pieces(FIXTURES / "heisenberg.lif", 4, capsys):
        assert "page" not in text and "page" not in machine


def test_cohomology_refuses_a_d1_that_keeps_a_weight(capsys, tmp_path):
    # the zero tensor on a target with a unary bracket: d1 keeps the weight,
    # so its weight-one part need not square to zero
    unary = tmp_path / "unary_target.lif"
    unary.write_text(
        "space E\n  a0 0\n\nspace V\n  u -1\n  w 0\n\n"
        "settings\n  bound 3\n  max_arity 3\n  seed 0\n\n"
        "brackets V symmetric\n  1 : u -> w : 1/1\n\n"
        "action E V\n  1 1 : a0 ; u -> w : 1/1\n  2 1 : a0 a0 ; u -> w : 1/2\n\n"
        "tensor V E\n"
    )
    code, out = run_cli(["deform", str(unary)], capsys)
    assert code == 0 and "verdict: PASS" in out
    args = ["cohomology", str(unary), "--degree", "1", "--weight", "1"]
    code, out = run_cli(args, capsys)
    assert code == 2
    assert out.endswith("error: the E1 page needs a d1 that raises every weight\n")
    code, out = run_cli([*args[:2], "--degree", "5", "--weight", "1"], capsys)
    assert code == 0 and "piece_dim: 0" in out


@pytest.mark.parametrize("command", ["adjoint-strict", "centroid"])
def test_strict_commands_refuse_a_plain_structure(command, capsys, tmp_path):
    # [f p, q] = z but f [p, q] = 0: a check of the right slot alone would
    # pass this Leibniz bracket, which is no Lie-infinity algebra
    plain = tmp_path / "plain.lif"
    plain.write_text(
        "space D\n  p -1\n  q -1\n  z -1\n\n"
        "settings\n  bound 4\n  max_arity 2\n  seed 0\n\n"
        "brackets D plain\n  2 : p q -> z : 1/1\n\n"
        "tensor D D\n  1 : p -> p : 1/1\n\n"
        "morphism D D\n  1 : p -> p : 1/1\n"
    )
    code, out = run_cli([command, str(plain)], capsys)
    assert code == 2
    errors = [line for line in out.splitlines() if line.startswith("error")]
    assert errors == [f"error: {command} needs a symmetric (Lie-infinity) structure"]
    assert "verdict" not in out


def test_perturbed_tensor_fails_with_matching_routes(capsys, tmp_path):
    perturbed = tmp_path / "perturbed.lif"
    base = (FIXTURES / "heisenberg.lif").read_text()
    perturbed.write_text(base + "  1 : z -> x : 1/1\n")
    code, out = run_cli(["check-tensor", str(perturbed)], capsys)
    assert code == 1
    assert "route_explicit: FAIL" in out and "route_series: FAIL" in out


def test_build_product_emits_reparseable_structure(capsys, tmp_path):
    code, out = run_cli(["build-product", str(FIXTURES / "heisenberg.lif")], capsys)
    assert code == 0
    assert "structure:" in out
    body = out.split("structure:\n", 1)[1]
    product = tmp_path / "product.lif"
    product.write_text(body)
    code2, out2 = run_cli(["check-loday", str(product)], capsys)
    assert code2 == 0, out2


# space names and symbols may hold dots, so the acting letter A.x.y spells
# the target letter y of the space A.x as well
DOTTED = (
    "space A\n  x.y -1\n\nspace A.x\n  y -1\n\n"
    "settings\n  bound 4\n  max_arity 3\n  seed 0\n\n"
    "action A A.x\n  1 1 : x.y ; y -> y : 1/1\n"
)


@pytest.mark.parametrize("command", ["check-action", "check-coherence", "build-product"])
def test_direct_sum_keeps_dotted_letters_distinct(command, capsys, tmp_path):
    path = tmp_path / "dotted.lif"
    path.write_text(DOTTED)
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 0, captured.out
    assert "verdict: PASS" in captured.out
    assert "Traceback" not in captured.out + captured.err
    if command == "build-product":
        body = captured.out.split("structure:\n", 1)[1]
        assert body.startswith("space A+A.x\n  A.x.y -1\n  A.x'.y -1\n\n")
        product = tmp_path / "product.lif"
        product.write_text(body)
        assert run_cli(["check-loday", str(product)], capsys)[0] == 0


def test_descend_emits_verified_plain_structure(capsys, tmp_path):
    code, out = run_cli(["descend", str(FIXTURES / "heisenberg.lif")], capsys)
    assert code == 0
    body = out.split("structure:\n", 1)[1]
    assert "brackets V plain" in body
    descended = tmp_path / "descended.lif"
    descended.write_text(body)
    code2, out2 = run_cli(["check-loday", str(descended)], capsys)
    assert code2 == 0, out2


@pytest.mark.parametrize("name", ["heisenberg", "adjoint_identity", "string/string_tensor"])
def test_theorem_fixtures_are_the_files_the_helper_writes(name):
    sf = parse_path(FIXTURES / f"{name}.lif")
    text = theorem_file(sf.embedding_tensor(), sf.action_family(), 5)
    assert (FIXTURES / "theorem" / f"{Path(name).name}.lif").read_text() == text


@pytest.mark.parametrize("bound", (3, 4, 5))
def test_theorem_files_of_every_verified_corpus_tensor_pass(bound, capsys, tmp_path):
    # the paper's theorem: a verified tensor is a morphism from its
    # descendent structure, which is a Loday-infinity structure
    verified = 0
    for n, inst in enumerate(corpus.tensor_corpus(60, 3)):
        if not check_embedding_explicit(inst.tensor, inst.action, bound).ok:
            continue
        verified += 1
        path = tmp_path / f"theorem{n}.lif"
        path.write_text(theorem_file(inst.tensor, inst.action, bound))
        options = ["--bound", str(bound), "--format", "machine"]
        code, out = run_cli(["check-loday", str(path), "--space", "V", *options], capsys)
        assert code == 0, (inst.label, out)
        code, out = run_cli(["check-morphism", str(path), *options], capsys)
        assert code == 0, (inst.label, out)
    # the corpus holds 22 tensors verified at every bound
    assert verified == 22


def _residual_lines(out: str) -> list[str]:
    return [line for line in out.splitlines() if line.startswith("residual ")]


def test_theorem_file_morphism_residuals_are_the_tensor_residuals_negated(capsys, tmp_path):
    # check-morphism reports F(l(w)) - l'(F(w)), check-tensor the bracket
    # side less the expansion side: the same defect with the opposite sign
    perturbed = tmp_path / "perturbed.lif"
    perturbed.write_text((FIXTURES / "heisenberg.lif").read_text() + "  1 : z -> x : 1/2\n")
    sf = parse_path(perturbed)
    theorem = tmp_path / "theorem.lif"
    theorem.write_text(theorem_file(sf.embedding_tensor(), sf.action_family(), 4))
    options = ["--bound", "4", "--format", "machine"]
    code, tensor_out = run_cli(["check-tensor", str(perturbed), *options], capsys)
    assert code == 1
    code, morphism_out = run_cli(["check-morphism", str(theorem), *options], capsys)
    assert code == 1
    residuals = _residual_lines(tensor_out)
    assert len(residuals) == 4
    negated = [
        re.sub(r"\((-?)(\d+/\d+)\)", lambda m: f"({'' if m[1] else '-'}{m[2]})", line)
        for line in residuals
    ]
    assert _residual_lines(morphism_out) == negated


def test_bound_flag_overrides_settings(capsys):
    code, out = run_cli(
        ["check-lie", str(FIXTURES / "heisenberg.lif"), "--bound", "2"], capsys
    )
    assert code == 0
    assert "bound: 2" in out


SYMMETRIC_MORPHISM = (
    "space B\n  a 0\n  b 0\n  c 1\n\nspace Q\n  x 0\n  y 1\n\n"
    "brackets B symmetric\n  2 : a b -> c : 1/1\n\nbrackets Q symmetric\n\n"
    "morphism B Q\n  2 : {key} : 1/1\n"
)


@pytest.mark.parametrize("bound", (3, 4, 5))
def test_lie_morphism_reads_a_binary_component_as_symmetric(bound, capsys, tmp_path):
    # F(a, c) = y meets [a, b] = c on the word a, a, b in two unshuffles:
    # both routes read the symmetric map there
    path = tmp_path / "binary.lif"
    path.write_text(SYMMETRIC_MORPHISM.format(key="a c -> y"))
    code, out = run_cli(["check-morphism", str(path), "--bound", str(bound)], capsys)
    assert code == 1, out
    assert "residuals: 1\n  arity 3 [a,a,b] = (2/1)*y\n" in out


def test_lie_morphism_refuses_a_non_canonical_component_key(capsys, tmp_path):
    path = tmp_path / "unsorted.lif"
    path.write_text(SYMMETRIC_MORPHISM.format(key="b a -> x"))
    code, out = run_cli(["check-morphism", str(path), "--bound", "3"], capsys)
    assert code == 2
    errors = [line for line in out.splitlines() if line.startswith("error:")]
    assert errors == ["error: Lie-morphism component key [b,a] is not canonical"]


def test_route_disagreement_maps_to_exit_three(capsys, monkeypatch):
    import linfty.cli as cli
    from linfty.report import RouteDisagreement

    def boom(sf, args, em):
        raise RouteDisagreement("synthetic divergence")

    monkeypatch.setitem(cli.HANDLERS, "check-tensor", boom)
    code = cli.main(["check-tensor", str(FIXTURES / "heisenberg.lif")])
    out = capsys.readouterr().out
    assert code == 3
    assert "internal consistency" in out


def test_a_series_that_does_not_stabilize_exits_three(capsys, monkeypatch):
    # the commutator series stops by weight, so one that runs on is a kernel
    # fault, reported as a route disagreement is and with no traceback
    monkeypatch.setattr(tensor_module, "balavoine_bracket", lambda *args: {(0,): {0: 1}})
    code = main(["check-tensor", str(FIXTURES / "heisenberg.lif")])
    captured = capsys.readouterr()
    assert code == 3
    errors = [line for line in captured.out.splitlines() if line.startswith("error:")]
    assert errors == ["error: internal consistency: commutator series did not stabilize"]
    assert "Traceback" not in captured.out + captured.err


def test_route_disagreement_names_word_and_both_values(capsys, monkeypatch):
    import linfty.homotopy as homotopy

    real = homotopy._composite

    def skewed(space, slots, inner, parity, bound):
        # one spurious term: the coderivation square picks up [p,p] = z on (p, p)
        square = {w: dict(v) for w, v in real(space, slots, inner, parity, bound).items()}
        square.setdefault((0, 0), {})[2] = Fraction(1)
        return square

    monkeypatch.setattr(homotopy, "_composite", skewed)
    code = main(["check-loday", str(FIXTURES / "loday_plain.lif")])
    out = capsys.readouterr().out
    assert code == 3
    errors = [line for line in out.splitlines() if line.startswith("error:")]
    assert errors == [
        "error: internal consistency: anchored identity sum and coderivation square "
        "differ: first at [p,p]: identity sum 0, coderivation square (1/1)*z"
    ]


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = [
    ("check-coherence", "heisenberg.lif", "coherence_pass"),
    ("check-tensor", "heisenberg.lif", "tensor_pass"),
    ("check-coherence", "noncoherent.lif", "coherence_fail"),
]


@pytest.mark.parametrize("command,fixture,name", GOLDEN_CASES)
def test_reports_match_golden_files(command, fixture, name, capsys, monkeypatch):
    monkeypatch.chdir(Path(__file__).parent.parent)
    for fmt, suffix in (("text", ".txt"), ("machine", ".machine.txt")):
        args = [command, f"tests/fixtures/{fixture}", "--format", fmt]
        main(args)
        out = capsys.readouterr().out
        expected = (GOLDEN / f"{name}{suffix}").read_text()
        assert out == expected, (command, fixture, fmt)


def test_noncoherent_fixture_fails_deterministically(capsys):
    args = ["check-coherence", str(FIXTURES / "noncoherent.lif")]
    code1 = main(args)
    first = capsys.readouterr().out
    code2 = main(args)
    second = capsys.readouterr().out
    assert code1 == code2 == 1
    assert first == second


# ---------------------------------------------------------------------------
# one parser per process

HEISENBERG = "tests/fixtures/heisenberg.lif"
# each call beside the one before it differs in the option it drops or adds
PARSER_SEQUENCE = [
    (["check-coherence", HEISENBERG, "--format", "machine"], "coherence_pass.machine.txt"),
    (["check-coherence", HEISENBERG], "coherence_pass.txt"),
    (["check-lie", HEISENBERG, "--bound", "3"], None),
    (["check-lie", HEISENBERG], None),
    (["check-lie", "tests/fixtures/abelian.lif", "--space", "E"], None),
    (["cohomology", HEISENBERG, "--bound", "2", "--degree", "0", "--weight", "2"], None),
    (["cohomology", HEISENBERG], None),
    (["frobnicate", HEISENBERG], None),
    (["check-lie", HEISENBERG], None),
]


def run_captured(args, capsys):
    """Exit code, stdout and (for a usage error) stderr of one call."""
    try:
        code = main(args)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err
    return code, capsys.readouterr().out, None


@pytest.fixture
def fresh_parser():
    build_parser.cache_clear()
    yield
    build_parser.cache_clear()


def test_a_shared_parser_carries_no_option_over(fresh_parser, capsys, monkeypatch):
    monkeypatch.chdir(Path(__file__).parent.parent)
    first_calls = []
    for args, _ in PARSER_SEQUENCE:
        build_parser.cache_clear()
        first_calls.append(run_captured(args, capsys))
    build_parser.cache_clear()
    for (args, golden), first in zip(PARSER_SEQUENCE, first_calls):
        got = run_captured(args, capsys)
        assert got == first, args
        if golden is not None:
            assert got[:2] == (0, (GOLDEN / golden).read_text()), args
    codes = [code for code, _, _ in first_calls]
    assert codes == [0, 0, 0, 0, 0, 0, 2, 2, 0]
    assert "bound: 3" in first_calls[2][1] and "bound: 3" not in first_calls[3][1]
    assert "space: E" in first_calls[4][1]
    assert "error: cohomology needs --degree and --weight" in first_calls[6][1]
    code, out, err = first_calls[7]
    assert out == "" and err.startswith("usage: linfty") and "invalid choice" in err


def test_build_parser_builds_one_parser_per_process(fresh_parser, capsys, monkeypatch):
    built = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for args in (["check-lie", str(FIXTURES / "heisenberg.lif")], ["frobnicate", "x"]) * 2:
        run_captured(args, capsys)
    assert build_parser() is build_parser()
    assert len(built) == 1


# -- the direct read of a canonical argv ----------------------------------------

ARGV_COMMANDS = [*COMMANDS[:4], "cohomology", "frobnicate", "check-li", "--bound", "-h"]
ARGV_PATHS = ["x.lif", "tests/fixtures/abelian.lif", "a b.lif", "", "-x.lif", "-3", "--"]
ARGV_OPTIONS = [
    "--bound", "--seed", "--degree", "--weight", "--format", "--space",
    "--bou", "--form", "--bound=3", "--space=E", "-h", "--help", "--", "-b", "--Bound",
    "\u2014bound", "bound",
]
ARGV_VALUES = [
    "3", "0", "-3", "-0", "007", "12", "+4", "4_0", "\u0663", "\uff13", "-\u0663", " 3", "3 ",
    "1e3", "-", "", "text", "machine", "Text", "E", "V", "-E", "a=b", " -E", "--", "-h",
]


def random_argv(rng) -> list[str]:
    """An argv near the canonical shape: a command, a path, then option and
    value pairs, with a token now and then dropped, repeated or drawn from
    the wrong pool."""
    argv = [rng.choice(ARGV_COMMANDS[:5]) if rng.random() < 0.8 else rng.choice(ARGV_COMMANDS)]
    argv.append(rng.choice(ARGV_PATHS[:3]) if rng.random() < 0.8 else rng.choice(ARGV_PATHS))
    for _ in range(rng.randrange(4)):
        option = rng.choice(ARGV_OPTIONS[:6]) if rng.random() < 0.8 else rng.choice(ARGV_OPTIONS)
        argv += [option, rng.choice(ARGV_VALUES)]
    if rng.random() < 0.2:
        del argv[rng.randrange(len(argv))]
    if rng.random() < 0.1:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(argv))
    return argv


def test_the_direct_read_declines_or_equals_argparse():
    rng = random.Random(41)
    parser = build_parser()
    read = 0
    for _ in range(12_000):
        argv = random_argv(rng)
        args = _canonical_args(argv)
        if args is None:
            continue
        read += 1
        assert vars(args) == vars(parser.parse_args(argv)), argv
    # each value rule is met in both directions
    assert read > 2_000
    assert _canonical_args(["check-lie", "x", "--bound", "-3"]).bound == -3
    for argv in (
        ["check-lie", "x", "--bound", "+4"],
        ["check-lie", "x", "--bound", "4_0"],
        ["check-lie", "x", "--bound", "\u0663"],
        ["check-lie", "x", "--bou", "3"],
        ["check-lie", "x", "--bound=3"],
        ["check-lie", "x", "--format", "Text"],
        ["check-lie", "x", "--space", "-E"],
        ["check-lie", "x", "--", "3"],
        ["check-lie", "-h"],
        ["check-lie"],
        ["check-lie", Path("x")],
    ):
        assert _canonical_args(argv) is None, argv


def test_canonical_calls_never_reach_argparse(fresh_parser, capsys, monkeypatch):
    monkeypatch.chdir(Path(__file__).parent.parent)
    expected = [run_captured(args, capsys) for args, _ in PARSER_SEQUENCE]

    class Reached(Exception):
        pass

    def refuse(self, *args, **kwargs):
        raise Reached

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    for (args, _), first in zip(PARSER_SEQUENCE, expected):
        if args[0] == "frobnicate":
            with pytest.raises(Reached):
                main(args)
            assert first[0] == 2 and "invalid choice" in first[2]
        else:
            assert run_captured(args, capsys) == first, args
