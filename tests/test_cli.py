import json

from mmsvote.cli import main
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
