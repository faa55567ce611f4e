import json
import os
import subprocess
import sys
import time
from pathlib import Path

import mmsvote
from mmsvote.cli import _build_parser, main
from mmsvote.model import parse_matrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write_example(tmp_path, which, name=None):
    path = tmp_path / f"{name or which}.txt"
    assert main(["gen", "--which", which, "--out", str(path)]) == 0
    return path


def test_shares_lines(tmp_path, capsys):
    path = write_example(tmp_path, "jr_vs_mms")
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "shares", "--input", str(path))
    assert code == 0
    assert out.splitlines() == [
        "mms_adapt: 5 6 4",
        "mms_egal: 4",
        "rds: 5 6 4",
        "uniform_bound: 5 6 4",
        "n3_fine: 5 6 4",
        "n3_coarse: 6",
        "n3_min_bound: 5",
    ]


def test_shares_json(tmp_path, capsys):
    path = write_example(tmp_path, "mms_vs_rds")
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "shares", "--input", str(path), "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["mms_adapt"] == [0, 0, 0, 0]
    assert blob["uniform_bound"] == [1, 1, 1, 1]
    assert "n3_bounds" not in blob


def test_shares_mnw_gap_subprocess(tmp_path):
    # the 10x360 Nash welfare gap instance, through a fresh interpreter
    path = tmp_path / "gap.txt"
    assert main(["gen", "--which", "mnw-gap", "--agents", "9", "--out", str(path)]) == 0
    paths = [str(Path(mmsvote.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "mmsvote.cli", "shares", "--input", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "mms_adapt: 189" + " 217" * 9
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_shares_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "shares", "--input", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "error" in err
    odd = tmp_path / "odd.txt"
    odd.write_text("\u0663 1\n0\n0\n0\n", encoding="utf-8")  # an Arabic-Indic 3
    code, _, _ = run_cli(capsys, "shares", "--input", str(odd))
    assert code == 2


def test_run_round_robin(tmp_path, capsys):
    path = write_example(tmp_path, "jr_vs_mms")
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "run", "--rule", "ptrr3", "--input", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "outcome: 111011100"
    assert lines[1] == "utilities: 5 6 4"
    assert "alpha_adapt: 1" in lines


def test_run_mnw_example(tmp_path, capsys):
    path = write_example(tmp_path, "mnw_vs_mms")
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "run", "--rule", "mnw", "--input", str(path), "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["utilities"] == [6, 12, 12]
    assert blob["alpha_adapt"] == "6/7"


def test_run_writes_transcript(tmp_path, capsys):
    path = write_example(tmp_path, "jr_vs_mms")
    out_path = tmp_path / "transcript.json"
    code, _, _ = run_cli(
        capsys, "run", "--rule", "ptrr3", "--input", str(path),
        "--transcript", str(out_path),
    )
    assert code == 0
    blob = json.loads(out_path.read_text())
    assert blob["rule"] == "ptrr3"
    assert blob["outcome"] == "111011100"
    assert len(blob["decisions"]) == 9


def test_run_incompatible_agents(tmp_path, capsys):
    path = write_example(tmp_path, "mms_vs_rds")
    capsys.readouterr()
    code, _, err = run_cli(capsys, "run", "--rule", "ptrr3", "--input", str(path))
    assert code == 2
    assert "error" in err


def test_verify_outcome_roundtrip(tmp_path, capsys):
    path = write_example(tmp_path, "jr_vs_mms")
    capsys.readouterr()
    code, out, _ = run_cli(
        capsys, "verify", "--input", str(path), "--outcome", "111011100"
    )
    assert code == 0
    assert "alpha_adapt: 1" in out.splitlines()
    code, _, err = run_cli(
        capsys, "verify", "--input", str(path), "--outcome", "11"
    )
    assert code == 2
    assert "error" in err


def test_verify_flag_combinations(tmp_path, capsys):
    path = write_example(tmp_path, "jr_vs_mms")
    capsys.readouterr()
    code, _, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == 2
    code, _, err = run_cli(
        capsys, "verify", "--input", str(path), "--outcome", "111011100",
        "--certificate", str(path),
    )
    assert code == 2


def test_attack_and_certificate_check(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys, "attack", "--rule", "majority", "--agents", "7",
        "--out", str(cert_path),
    )
    assert code == 0
    assert out == ""
    blob = json.loads(cert_path.read_text())
    assert blob["victim"] == 1
    assert blob["guarantee"] == 1
    assert blob["achieved"] == 0

    code, out, _ = run_cli(capsys, "verify", "--certificate", str(cert_path))
    assert code == 0
    assert out.strip() == "valid"

    blob["achieved"] = blob["achieved"] + 1
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(blob))
    code, out, _ = run_cli(capsys, "verify", "--certificate", str(tampered))
    assert code == 1
    assert out.strip() == "invalid"

    blob["witness"] = [[float(j) for j in bundle] for bundle in blob["witness"]]
    floats = tmp_path / "floats.json"
    floats.write_text(json.dumps(blob))
    code, _, err = run_cli(capsys, "verify", "--certificate", str(floats))
    assert code == 2
    assert "witness" in err

    blob["achieved"] = blob["achieved"] - 1
    blob["witness"] = [[int(j) for j in bundle] for bundle in blob["witness"]]
    for bad_n in (99, True):
        blob["n"] = bad_n
        wrong_n = tmp_path / "wrong_n.json"
        wrong_n.write_text(json.dumps(blob))
        code, out, err = run_cli(capsys, "verify", "--certificate", str(wrong_n))
        assert (code, out) == (2, "")
        assert "agent count" in err
    del blob["n"]
    for bad_rule in (5, None, [1], "ptrr3"):
        blob["rule"] = bad_rule
        wrong_rule = tmp_path / "wrong_rule.json"
        wrong_rule.write_text(json.dumps(blob))
        code, out, err = run_cli(capsys, "verify", "--certificate", str(wrong_rule))
        assert (code, out) == (2, "")
        assert "rule" in err
    del blob["rule"]
    no_n = tmp_path / "no_n.json"
    no_n.write_text(json.dumps(blob))
    code, out, _ = run_cli(capsys, "verify", "--certificate", str(no_n))
    assert code == 0
    assert out.strip() == "valid"

    del blob["witness"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(blob))
    code, _, err = run_cli(capsys, "verify", "--certificate", str(broken))
    assert code == 2
    assert "error" in err


def test_attack_and_verify_13_agents(tmp_path, capsys):
    cert_path = tmp_path / "cert13.json"
    code, _, _ = run_cli(
        capsys, "attack", "--rule", "majority", "--agents", "13", "--out", str(cert_path)
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "--certificate", str(cert_path))
    assert code == 0
    assert out.strip() == "valid"


def test_attack_stdout_and_rejection(capsys):
    code, out, _ = run_cli(capsys, "attack", "--rule", "always-0", "--agents", "7")
    assert code == 0
    blob = json.loads(out)
    assert blob["guarantee"] > blob["achieved"]

    code, _, err = run_cli(capsys, "attack", "--rule", "majority", "--agents", "5")
    assert code == 2
    assert "n >= 7" in err


def test_gen_constraints(tmp_path, capsys):
    gap = tmp_path / "gap.txt"
    code, _, _ = run_cli(capsys, "gen", "--which", "mnw-gap", "--agents", "9", "--out", str(gap))
    assert code == 0
    matrix = parse_matrix(gap.read_text())
    assert (matrix.n, matrix.m) == (10, 360)

    code, _, err = run_cli(capsys, "gen", "--which", "mnw-gap", "--out", str(gap))
    assert code == 2
    code, _, err = run_cli(
        capsys, "gen", "--which", "all-opposed", "--agents", "3", "--out", str(gap)
    )
    assert code == 2
    code, _, _ = run_cli(capsys, "gen", "--which", "no-such-instance", "--out", str(gap))
    assert code == 2
    code, _, err = run_cli(
        capsys, "gen", "--which", "all-consensus", "--agents", "3", "--decisions", "-2",
        "--out", str(gap),
    )
    assert code == 2
    assert "nonnegative" in err
    code, _, err = run_cli(
        capsys, "gen", "--which", "all-opposed", "--agents", "0", "--decisions", "2",
        "--out", str(gap),
    )
    assert code == 2
    assert "agents must be positive" in err


def test_gen_all_families_parse(tmp_path, capsys):
    for which in (
        "jr_vs_mms", "mms_vs_rds", "mnw_vs_mms",
        "ambiguous-triple", "alpha2-heavy", "final-45",
    ):
        path = write_example(tmp_path, which)
        matrix = parse_matrix(path.read_text())
        assert matrix.m > 0
    capsys.readouterr()
    code, _, _ = run_cli(
        capsys, "gen", "--which", "all-consensus", "--agents", "4",
        "--decisions", "5", "--out", str(tmp_path / "cons.txt"),
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "run", "--rule", "deferred4", "--input", str(tmp_path / "cons.txt")
    )
    assert code == 0
    assert "utilities: 5 5 5 5" in out.splitlines()


def test_search_none(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--rule", "ptrr3", "--agents", "3", "--max-decisions", "4"
    )
    assert code == 0
    assert out.strip() == "none"


def test_search_counterexample(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--rule", "majority", "--agents", "3", "--max-decisions", "3"
    )
    assert code == 1
    assert out == "3 3\n000\n000\n111\noutcome: 000\nalpha: 0\n"


def test_search_threshold_flag(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--rule", "muffled3", "--agents", "3",
        "--max-decisions", "4", "--share", "egal",
    )
    assert code == 0 and out.strip() == "none"
    code, out, _ = run_cli(
        capsys, "search", "--rule", "muffled3", "--agents", "3",
        "--max-decisions", "4", "--threshold", "3/4",
    )
    assert code == 0 and out.strip() == "none"
    # a non-positive threshold would pass every audit vacuously
    for threshold in ("0", "-1/2"):
        code, out, err = run_cli(
            capsys, "search", "--rule", "always-0", "--agents", "3",
            "--max-decisions", "3", f"--threshold={threshold}",
        )
        assert code == 2 and out == "" and "threshold must be positive" in err


def test_search_unparsable_threshold(capsys):
    # one usage error names the flag, whatever Fraction made of the text
    for threshold in ("1/0", "nan", "inf", "abc", ""):
        code, out, err = run_cli(
            capsys, "search", "--rule", "always-0", "--agents", "3",
            "--max-decisions", "3", f"--threshold={threshold}",
        )
        assert (code, out) == (2, "")
        assert err == f"error: --threshold takes a ratio like 3/4, not {threshold!r}\n"


def test_search_seed_needs_sample(capsys):
    code, out, err = run_cli(
        capsys, "search", "--rule", "majority", "--agents", "3",
        "--max-decisions", "3", "--seed", "3",
    )
    assert (code, out) == (2, "")
    assert "seed needs sample" in err


def test_search_sampling_flags(capsys):
    code, _, err = run_cli(
        capsys, "search", "--rule", "majority", "--agents", "3",
        "--max-decisions", "3", "--sample", "50",
    )
    assert code == 2
    assert "seed" in err
    code, out, err = run_cli(
        capsys, "search", "--rule", "majority", "--agents", "3",
        "--max-decisions", "2", "--sample", "-3", "--seed", "1",
    )
    assert (code, out) == (2, "")
    assert "sample" in err

    runs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "search", "--rule", "majority", "--agents", "3",
            "--max-decisions", "4", "--sample", "80", "--seed", "7", "--json",
        )
        runs.append((code, out))
    assert runs[0] == runs[1]


def test_budget_env_var(tmp_path, capsys, monkeypatch):
    path = write_example(tmp_path, "jr_vs_mms")
    capsys.readouterr()
    monkeypatch.setenv("MMSVOTE_SEARCH_BUDGET", "1")
    code, _, err = run_cli(capsys, "shares", "--input", str(path))
    assert code == 3
    assert "budget" in err

    monkeypatch.setenv("MMSVOTE_SEARCH_BUDGET", "not-a-number")
    code, _, err = run_cli(capsys, "shares", "--input", str(path))
    assert code == 2


def test_parser_level_errors(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["search", "--rule", "majority", "--agents", "3"]) == 2
    capsys.readouterr()


def test_reused_parser_matches_fresh(tmp_path, capsys):
    # the parser is built once per process; parsing must leave nothing on it
    # that changes a later call's output
    instance = write_example(tmp_path, "jr_vs_mms")
    calls = [
        [],
        ["--help"],
        ["shares", "--input", str(instance)],
        ["search", "--rule", "majority", "--agents", "3", "--max-decisions", "3", "--bogus"],
        ["attack", "--rule", "majority", "--agents", "7"],
    ]
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        capsys.readouterr()
        fresh.append(run_cli(capsys, *argv))
    _build_parser.cache_clear()
    reused = [run_cli(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in reused] == [2, 0, 0, 2, 0]
    assert reused == fresh
    assert _build_parser.cache_info().misses == 1


# Seeded corpus of small instances; the digest pins every byte of stdout and
# of the transcript files. Change it only together with an intended change
# of the CLI's output.
CORPUS_DIGEST = "6ba8a41b4b2f1a16d5f761008cf80694717e864d33e4387d90c77be24f823446"

CORPUS_RULES = (
    ("ptrr3", (3,), 10),
    ("deferred4", (4,), 8),
    ("muffled3", (3,), 10),
    ("majority", (2, 3, 4, 5), 8),
    ("mnw", (2, 3, 4, 5), 6),
)


def _corpus_chunks(tmp_path, capsys):
    import random

    rng = random.Random(20241018)
    matrix_path = tmp_path / "matrix.txt"
    transcript_path = tmp_path / "transcript.json"
    for rule, agent_counts, m_max in CORPUS_RULES:
        for case in range(40):
            n = rng.choice(agent_counts)
            m = rng.randint(1, m_max)
            rows = ["".join(rng.choice("01") for _ in range(m)) for _ in range(n)]
            matrix_path.write_text(f"{n} {m}\n" + "\n".join(rows) + "\n")
            outcome = "".join(rng.choice("01") for _ in range(m))
            as_json = ("--json",) if case % 2 else ()
            calls = [
                ("run", "--rule", rule, "--input", str(matrix_path),
                 "--transcript", str(transcript_path), *as_json),
                ("verify", "--input", str(matrix_path), "--outcome", outcome, *as_json),
                ("shares", "--input", str(matrix_path), "--json"),
            ]
            for argv in calls:
                code, out, err = run_cli(capsys, *argv)
                assert code == 0, (argv, err)
                yield f"{rule} {case} {argv[0]} {code}\n".encode() + out.encode()
            yield transcript_path.read_bytes()


def test_cli_output_corpus_digest(tmp_path, capsys):
    import hashlib

    digest = hashlib.sha256()
    for chunk in _corpus_chunks(tmp_path, capsys):
        digest.update(chunk)
    assert digest.hexdigest() == CORPUS_DIGEST


# Every byte of the certificates ``attack --out`` writes and of what
# ``verify --certificate`` prints about them, with both exit codes. Change
# it only together with an intended change of the attack or its output.
CERTIFICATE_DIGEST = "08dadb1c6acbf29715ce7234cd78b858cd626d960511d004232c77e4ee4389fb"

CERTIFICATE_RULES = ("majority", "ptrr-generalized", "always-0", "always-minority")


def test_attack_certificate_digest(tmp_path, capsys):
    import hashlib

    digest = hashlib.sha256()
    cert = tmp_path / "cert.json"
    for rule in CERTIFICATE_RULES:
        for n in (*range(7, 13), 30):
            code, out, _ = run_cli(capsys, "attack", "--rule", rule, "--agents", str(n),
                                   "--out", str(cert))
            digest.update(f"{rule} {n} attack {code}\n".encode() + out.encode())
            digest.update(cert.read_bytes())
            code, out, _ = run_cli(capsys, "verify", "--certificate", str(cert))
            digest.update(f"{rule} {n} verify {code}\n".encode() + out.encode())
    assert digest.hexdigest() == CERTIFICATE_DIGEST
