"""Record the known answers in ``answers.json`` from the current code.

    python3 perfbench/record.py

Run it only at a commit whose verdicts are trusted: the benchmark treats every
recorded answer as correct.  CLI reports that have a golden file under
``tests/golden`` must match it byte for byte before anything is written.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import linfty
    import workloads
    from linfty import corpus

    answers = {}

    deform = {}
    for fixture in workloads.Deform.fixtures:
        sf = linfty.parse((workloads.FIXTURES / f"{fixture}.lif").read_text(encoding="utf-8"))
        for bound in (3, workloads.Deform.bound):
            complex_ = linfty.deformation_complex(sf.embedding_tensor(), sf.action_family(), bound)
            ranks = []
            for degree in sorted({complex_.element_degree(w, b) for w, b in complex_.basis}):
                for weight in range(1, bound + 1):
                    r = linfty.cohomology_rank(complex_, degree, weight)
                    ranks.append([r.degree, r.weight, r.piece_dim, r.rank_out, r.rank_in])
            deform[f"{fixture}@{bound}"] = {
                "basis_dim": len(complex_.basis),
                "verdict": complex_.check_d1_squares_to_zero().verdict,
                "ranks": ranks,
            }
    answers["deform"] = deform

    bound = workloads.CrosscheckActions.bound
    verdicts = {}
    for inst in corpus.action_corpus(64, 0):
        if "#" in inst.label:
            break
        coherent, product = linfty.theorem_crosscheck(inst.action, bound)
        assert coherent.verdict == product.verdict, inst.label
        verdicts[inst.label] = coherent.verdict
    answers["crosscheck-actions"] = verdicts

    goldens = {}
    for path in sorted((ROOT / "tests" / "golden").glob("*.txt")):
        if path.name.endswith(".machine.txt"):
            continue
        text = path.read_text(encoding="utf-8")
        fields = dict(line.split(": ", 1) for line in text.splitlines()[:2])
        goldens[(fields["command"], Path(fields["input"]).name)] = (path.name, text)
    cli = {}
    pairs = workloads.CliFixtures(0, {"cli-fixtures": {}})
    for command in pairs.commands:
        for fixture in pairs.fixtures:
            request = pairs._pair(command, fixture)
            code, out, err = request.run()
            entry = {"exit": code, "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}
            if (command, fixture) in goldens:
                name, text = goldens.pop((command, fixture))
                assert out == text, f"{request.label} differs from tests/golden/{name}"
                entry["golden"] = name
            cli[request.label] = entry
    assert not goldens, f"golden reports not covered: {sorted(goldens)}"
    answers["cli-fixtures"] = cli

    workloads.ANSWERS.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.ANSWERS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
