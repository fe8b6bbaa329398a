import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import genlearn
from genlearn import games, numtheory
from genlearn.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInstanceCommand:
    def test_three_bit_instance(self, capsys):
        code, out, _ = run_cli(capsys, "instance", "--n", "3", "--seed", "7")
        assert code == 0
        record = json.loads(out)
        assert int(record["p"]) in {5, 7}
        assert list(record) == ["n", "p", "q", "g", "g_a"]

    def test_deterministic(self, capsys):
        runs = [run_cli(capsys, "instance", "--n", "6", "--seed", "42")[1] for _ in range(2)]
        assert runs[0] == runs[1]

    def test_n_too_small(self, capsys):
        code, _, err = run_cli(capsys, "instance", "--n", "2", "--seed", "1")
        assert code == 2
        assert ">= 3" in err

    def test_keep_secret(self, capsys):
        code, out, _ = run_cli(capsys, "instance", "--n", "5", "--seed", "3", "--keep-secret")
        record = json.loads(out)
        assert "a_secret" in record
        assert pow(int(record["g"]), int(record["a_secret"]), int(record["p"])) == int(
            record["g_a"]
        )

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "instance", "--n", "3", "--seed", "7",
                               "--format", "text")
        assert code == 0
        assert out.startswith("n = 3\n")

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        code, out, _ = run_cli(capsys, "instance", "--n", "4", "--seed", "0",
                               "--out", str(path))
        assert code == 0 and out == ""
        assert int(json.loads(path.read_text())["p"]) == 11


@pytest.fixture
def instance_file(tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert main(["instance", "--n", "4", "--seed", "1", "--out", str(path)]) == 0
    capsys.readouterr()
    return path


class TestSampleCommand:
    def test_lines_shape(self, instance_file, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--instance", str(instance_file),
            "--key", "2", "--count", "4", "--seed", "9",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(line) == 20 for line in lines)  # 5n at n = 4
        suffixes = {line[8:] for line in lines}
        assert len(suffixes) == 1  # shared 3n-bit parameter suffix

    def test_reproducible_file(self, instance_file, tmp_path, capsys):
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (out1, out2):
            assert main(["sample", "--instance", str(instance_file), "--key", "1",
                         "--count", "8", "--seed", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_memory_does_not_grow_with_count(self, tmp_path):
        # Lines stream to the file; holding all 20,000 first peaks near 2 MB.
        inst, out = tmp_path / "inst.json", tmp_path / "samples.txt"
        assert main(["instance", "--n", "8", "--seed", "1", "--out", str(inst)]) == 0
        tracemalloc.start()
        try:
            assert main(["sample", "--instance", str(inst), "--key", "3", "--count", "20000",
                         "--seed", "2", "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024
        assert out.read_text(encoding="ascii").count("\n") == 20000

    def test_key_out_of_range(self, instance_file, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--instance", str(instance_file),
            "--key", "6", "--count", "1", "--seed", "0",
        )
        assert code == 2 and "1..5" in err

    def test_missing_instance_file(self, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--instance", "/nonexistent.json",
            "--key", "1", "--count", "1", "--seed", "0",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "edit",
        [
            lambda r: {**r, "q": None},
            lambda r: {**r, "a_secret": [1]},
            lambda r: {**r, "g": "x"},
            lambda r: {**r, "p": int(r["p"]) + 0.9},
            lambda r: {**r, "n": float(r["n"])},
            lambda r: {**r, "g": True},
            lambda r: list(r.values()),
            lambda r: {**r, "n": " " + r["n"]},
            lambda r: {**r, "p": r["p"][0] + "_" + r["p"][1:]},
            lambda r: {**r, "g": "+" + r["g"]},
            lambda r: {**r, "g_a": r["g_a"] + " "},
            lambda r: {**r, "q": "0" + r["q"]},
        ],
        ids=["null-q", "list-a-secret", "non-numeric-g", "float-p", "float-n", "bool-g",
             "top-level-array", "padded-n", "underscore-p", "plus-g", "trailing-space-g-a",
             "leading-zero-q"],
    )
    def test_malformed_instance_record(self, edit, instance_file, capsys):
        instance_file.write_text(json.dumps(edit(json.loads(instance_file.read_text()))))
        code, out, err = run_cli(capsys, "sample", "--instance", str(instance_file),
                                 "--key", "1", "--count", "1", "--seed", "0")
        assert code == 2 and out == ""
        assert err.startswith("error: cannot load instance: malformed instance record")
        assert err.count("\n") == 1


class TestLearnCommand:
    def test_end_to_end_roundtrip(self, instance_file, tmp_path, capsys):
        samples = tmp_path / "samples.txt"
        assert main(["sample", "--instance", str(instance_file), "--key", "3",
                     "--count", "5", "--seed", "2", "--out", str(samples)]) == 0
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "learn", "--samples", str(samples),
                               "--target-key", "3")
        assert code == 0
        record = json.loads(out)
        assert record["key"] == "3"
        assert record["kl_to_target"] == "0.0"
        assert record["target_key_matched"] == "true"
        assert record["samples_used"] == "1"

    def test_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code, _, err = run_cli(capsys, "learn", "--samples", str(empty))
        assert code == 2 and "empty" in err

    def test_corrupted_suffix(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("000001100110011\n")  # suffix decodes to p = 9
        code, _, err = run_cli(capsys, "learn", "--samples", str(bad))
        assert code == 2 and "instance" in err

    @staticmethod
    def _lines(tmp_path, n, inst_seed, key, count, seed):
        inst = tmp_path / f"inst-{n}-{inst_seed}.json"
        assert main(["instance", "--n", str(n), "--seed", str(inst_seed), "--out", str(inst)]) == 0
        out = tmp_path / "drawn.txt"
        assert main(["sample", "--instance", str(inst), "--key", str(key),
                     "--count", str(count), "--seed", str(seed), "--out", str(out)]) == 0
        return out.read_text(encoding="ascii").splitlines()

    def _learn(self, tmp_path, capsys, lines):
        path = tmp_path / "samples.txt"
        path.write_text("".join(line + "\n" for line in lines), encoding="ascii")
        return run_cli(capsys, "learn", "--samples", str(path), "--target-key", "9")

    @pytest.mark.parametrize("case, bad", [
        ("two keys", 3), ("flipped value bit", 3), ("other instance", 2), ("other length", 2),
    ])
    def test_every_line_must_come_from_the_recovered_generator(self, case, bad, tmp_path, capsys):
        key5 = self._lines(tmp_path, 12, 3, 5, 3, 1)
        line3 = key5[2]
        lines = key5[:2] + {
            "two keys": lambda: self._lines(tmp_path, 12, 3, 9, 2, 2),
            "flipped value bit": lambda: [line3[:12] + "10"[int(line3[12])] + line3[13:]],
            "other instance": lambda: self._lines(tmp_path, 12, 4, 5, 1, 1),
            "other length": lambda: self._lines(tmp_path, 8, 3, 5, 1, 1),
        }[case]()
        if bad == 2:
            del lines[1]
        code, out, err = self._learn(tmp_path, capsys, lines)
        assert (code, out) == (2, "")
        assert err == f"error: line {bad} is not from the recovered generator\n"

    def test_consistent_lines_print_what_line_one_prints(self, tmp_path, capsys):
        lines = self._lines(tmp_path, 12, 3, 9, 3, 1)
        assert self._learn(tmp_path, capsys, lines) == self._learn(tmp_path, capsys, lines[:1])
        assert json.loads(self._learn(tmp_path, capsys, lines)[1])["samples_used"] == "1"

    def test_engine_option_is_gone(self, capsys):
        # Keys are recovered with the baby-step table only; there is no engine to pick.
        with pytest.raises(SystemExit) as exc:
            main(["learn", "--samples", "samples.txt", "--engine", "brute"])
        assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_seed_option_is_gone(self, capsys):
        # Learning draws no randomness, so `learn` takes no seed.
        with pytest.raises(SystemExit) as exc:
            main(["learn", "--samples", "samples.txt", "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


class TestGameCommand:
    def test_distinguish_reports_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "game", "--game", "distinguish", "--n", "6",
            "--trials", "40", "--seed", "3",
        )
        assert code == 0
        record = json.loads(out)
        assert record["game"] == "distinguish" and record["trials"] == 40
        assert record["advantage"] >= 0.8

    def test_exit_zero_even_with_no_advantage(self, capsys):
        code, out, _ = run_cli(
            capsys, "game", "--game", "distinguish", "--adversary", "coinflip",
            "--n", "4", "--trials", "20", "--seed", "3",
        )
        assert code == 0  # reporting tool, not a test

    def test_infer_random_strategy(self, capsys):
        code, out, _ = run_cli(
            capsys, "game", "--game", "infer", "--strategy", "random",
            "--n", "5", "--trials", "60", "--seed", "8",
        )
        record = json.loads(out)
        assert code == 0
        assert abs(record["pass_rate"] - 0.5) <= record["ci"]

    def test_reduction_with_uniform_learner(self, capsys):
        code, out, _ = run_cli(
            capsys, "game", "--game", "reduction", "--learner", "uniform",
            "--n", "5", "--trials", "40", "--seed", "2",
        )
        record = json.loads(out)
        assert code == 0
        assert record["game"] == "reduction"
        assert sum(record["cases"].values()) == 40

    def test_unknown_game_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["game", "--game", "poker"])
        assert exc.value.code == 2

    def test_engine_option_is_gone(self, capsys):
        # Games recover keys with the baby-step table, the only engine;
        # no command takes --engine.
        with pytest.raises(SystemExit) as exc:
            main(["game", "--game", "distinguish", "--engine", "brute"])
        assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err


class TestKeyRecoveryCap:
    class Built(Exception):
        """Raised in place of building an instance."""

    @pytest.fixture(autouse=True)
    def no_instances(self, monkeypatch):
        def refuse(n, *args, **kwargs):
            raise self.Built(n)

        monkeypatch.setattr(games, "generate_instance", refuse)

    KEY_GAMES = [
        ("--game", "distinguish", "--adversary", "keylearner", "--flavor", "mq"),
        ("--game", "distinguish", "--adversary", "keylearner", "--flavor", "pex"),
        ("--game", "infer", "--strategy", "keylearner"),
        ("--game", "reduction", "--learner", "exact"),
    ]

    @pytest.mark.parametrize("argv", KEY_GAMES)
    def test_n_above_cap_refused_before_any_instance(self, argv, capsys):
        code, out, err = run_cli(capsys, "game", *argv, "--n", "44", "--trials", "4",
                                 "--seed", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: --n must be <= 40")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, n", [(argv, 40) for argv in KEY_GAMES] + [
        (("--game", "distinguish", "--adversary", "coinflip"), 44),
        (("--game", "distinguish", "--adversary", "constant"), 44),
        (("--game", "infer", "--strategy", "random"), 44),
        (("--game", "reduction", "--learner", "uniform"), 44),
    ])
    def test_other_games_and_the_cap_itself_proceed(self, argv, n):
        with pytest.raises(self.Built):
            main(["game", *argv, "--n", str(n), "--trials", "4", "--seed", "1"])


class TestSearchBudget:
    @pytest.mark.parametrize("argv", [
        ("instance", "--n", "64", "--seed", "1"),
        ("game", "--game", "distinguish", "--n", "32", "--trials", "2", "--seed", "1"),
    ])
    def test_exhausted_search_is_usage_error(self, argv, monkeypatch, capsys):
        # One candidate per search: both commands run out of attempts.
        monkeypatch.setattr(numtheory, "MAX_ATTEMPTS", 1)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: no ") and "safe prime" in err
        assert err.count("\n") == 1 and "Traceback" not in err


class TestUsageErrors:
    # Every usage error is one stderr line, "error: " and the message, exit
    # code 2 and no stdout.  Paths are relative to the test's cwd.
    CASES = [
        pytest.param(["instance", "--n", "2"],
                     "--n must be >= 3 (no usable safe prime has fewer than 3 bits)",
                     id="instance-n"),
        pytest.param(["sample", "--instance", "missing.json", "--key", "1", "--count", "1"],
                     "cannot load instance: [Errno 2] No such file or directory: "
                     "'missing.json'", id="sample-missing-instance"),
        pytest.param(["sample", "--instance", "bad.json", "--key", "1", "--count", "1"],
                     "cannot load instance: malformed instance record: 'p'",
                     id="sample-malformed-instance"),
        pytest.param(["sample", "--instance", "inst.json", "--key", "6", "--count", "1"],
                     "--key must lie in 1..5 for this instance", id="sample-key"),
        pytest.param(["sample", "--instance", "inst.json", "--key", "1", "--count", "0"],
                     "--count must be >= 1", id="sample-count"),
        pytest.param(["learn", "--samples", "missing.txt"],
                     "cannot read samples: [Errno 2] No such file or directory: "
                     "'missing.txt'", id="learn-missing-samples"),
        pytest.param(["learn", "--samples", "bad.txt"],
                     "cannot read samples: not a bitstring: '01x'", id="learn-bad-samples"),
        pytest.param(["learn", "--samples", "empty.txt"], "sample file is empty",
                     id="learn-empty"),
        pytest.param(["learn", "--samples", "samples.txt", "--target-key", "0"],
                     "--target-key must lie in 1..5", id="learn-target-key"),
        pytest.param(["game", "--game", "infer", "--n", "41"],
                     "--n must be <= 40 when the game recovers keys "
                     "(discrete-log feasibility cap)", id="game-n-cap"),
    ]

    @pytest.mark.parametrize("argv, message", CASES)
    def test_one_stderr_line_and_exit_2(self, argv, message, instance_file, monkeypatch,
                                        capsys):
        monkeypatch.chdir(instance_file.parent)
        Path("bad.json").write_text('{"n": "4"}')
        Path("bad.txt").write_text("01x\n")
        Path("empty.txt").write_text("")
        assert main(["sample", "--instance", "inst.json", "--key", "3", "--count", "1",
                     "--out", "samples.txt"]) == 0
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestVerifyCommand:
    def test_boollemmas_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "boollemmas")
        assert code == 0
        assert "FAIL" not in out
        assert "PASS boollemmas:tv_equals_disagreement_n2_all_pairs" in out

    def test_kgen_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "kgen")
        assert code == 0 and out.strip().endswith("(0 failing checks)")

    def test_bad_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "numerology"])
        assert exc.value.code == 2


# Seeded stdout captured before a refactor (the games below before the games
# layer was pruned, the other commands before the reduction sampled through
# SampleOracle); a refactor must reproduce it byte for byte, not only
# rerun-equal (acceptance criterion 12).
_CI_ARMS, _CI_ONE = 0.7278954160144187, 0.25734989232919925
GOLDEN_GAMES = [
    (["--game", "distinguish", "--adversary", "keylearner", "--flavor", "mq"],
     {"game": "distinguish", "flavor": "mq", "n": 6, "trials": 40, "p_real": 1.0,
      "p_random": 0.0, "advantage": 1.0, "ci": _CI_ARMS, "invalid_real": 0,
      "invalid_random": 0, "seed": 12}),
    (["--game", "distinguish", "--adversary", "keylearner", "--flavor", "pex"],
     {"game": "distinguish", "flavor": "pex", "n": 6, "trials": 40, "p_real": 1.0,
      "p_random": 0.05, "advantage": 0.95, "ci": _CI_ARMS, "invalid_real": 0,
      "invalid_random": 0, "seed": 12}),
    (["--game", "distinguish", "--adversary", "constant"],
     {"game": "distinguish", "flavor": "mq", "n": 6, "trials": 40, "p_real": 1.0,
      "p_random": 1.0, "advantage": 0.0, "ci": _CI_ARMS, "invalid_real": 0,
      "invalid_random": 0, "seed": 12}),
    (["--game", "distinguish", "--adversary", "coinflip"],
     {"game": "distinguish", "flavor": "mq", "n": 6, "trials": 40, "p_real": 0.55,
      "p_random": 0.45, "advantage": 0.10000000000000003, "ci": _CI_ARMS,
      "invalid_real": 0, "invalid_random": 0, "seed": 12}),
    (["--game", "infer", "--strategy", "keylearner"],
     {"game": "infer", "n": 6, "trials": 40, "passes": 39, "violations": 0, "invalid": 0,
      "pass_rate": 0.975, "ci": _CI_ONE, "seed": 12}),
    (["--game", "infer", "--strategy", "random"],
     {"game": "infer", "n": 6, "trials": 40, "passes": 21, "violations": 0, "invalid": 0,
      "pass_rate": 0.525, "ci": _CI_ONE, "seed": 12}),
    (["--game", "reduction", "--learner", "exact"],
     {"game": "reduction", "n": 6, "trials": 40, "passes": 39, "violations": 0,
      "invalid": 0, "pass_rate": 0.975, "ci": _CI_ONE, "seed": 12,
      "cases": {"a": 40, "b": 0, "c": 0}}),
    (["--game", "reduction", "--learner", "uniform"],
     {"game": "reduction", "n": 6, "trials": 40, "passes": 21, "violations": 0,
      "invalid": 0, "pass_rate": 0.525, "ci": _CI_ONE, "seed": 12,
      "cases": {"a": 0, "b": 40, "c": 0}}),
]


_INSTANCE_N12 = '{\n  "n": "12",\n  "p": "2579",\n  "q": "1289",\n  "g": "1817",\n  "g_a": "2219"'
GOLDEN_COMMANDS = [
    pytest.param(["instance", "--n", "12", "--seed", "1"], _INSTANCE_N12 + "\n}\n",
                 id="instance-json"),
    pytest.param(["instance", "--n", "12", "--seed", "1", "--format", "text"],
                 "n = 12\np = 2579\nq = 1289\ng = 1817\ng_a = 2219\n", id="instance-text"),
    pytest.param(["instance", "--n", "12", "--seed", "1", "--keep-secret"],
                 _INSTANCE_N12 + ',\n  "a_secret": "310"\n}\n', id="instance-keep-secret"),
    pytest.param(["verify", "--suite", "numtheory"],
     "PASS numtheory:fp_bijection_all_safe_primes_lt_2^12\n"
     "PASS numtheory:fp_inverse_roundtrip\n"
     "PASS numtheory:every_nonidentity_residue_generates\n"
     "PASS numtheory:generator_orbits_enumerated_lt_2^9\n"
     "PASS numtheory:euler_criterion_matches_squares_lt_2^10\n"
     "OK (0 failing checks)\n", id="verify-numtheory"),
    pytest.param(["verify", "--suite", "boollemmas"],
     "PASS boollemmas:tv_equals_disagreement_n2_all_pairs\n"
     "PASS boollemmas:short_generator_tv_floor\n"
     "PASS boollemmas:exhaustive_min_tv_n2_m1_is_half\n"
     "PASS boollemmas:exact_generators_are_permuted_padded\n"
     "OK (0 failing checks)\n", id="verify-boollemmas"),
]


class TestGoldenOutput:
    @pytest.mark.parametrize("args, record", GOLDEN_GAMES,
                             ids=["-".join(a[1::2]) for a, _ in GOLDEN_GAMES])
    def test_game(self, args, record, capsys):
        code, out, _ = run_cli(capsys, "game", *args, "--n", "6", "--trials", "40",
                               "--seed", "12")
        assert code == 0
        assert out == json.dumps(record, indent=2) + "\n"

    def test_learn_on_n12_sample(self, tmp_path, capsys):
        inst, samples = tmp_path / "inst.json", tmp_path / "samples.txt"
        assert main(["instance", "--n", "12", "--seed", "1", "--out", str(inst)]) == 0
        assert main(["sample", "--instance", str(inst), "--key", "5", "--count", "50",
                     "--seed", "1", "--out", str(samples)]) == 0
        code, out, _ = run_cli(capsys, "learn", "--samples", str(samples),
                               "--target-key", "5")
        assert code == 0
        assert out == (
            '{\n  "n": "12",\n  "p": "2579",\n  "q": "1289",\n  "g": "1817",\n'
            '  "g_a": "2219",\n  "key": "5",\n  "samples_used": "1",\n'
            '  "kl_to_target": "0.0",\n  "target_key_matched": "true"\n}\n'
        )

    def test_verify_kgen(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "kgen")
        assert code == 0
        assert out == "".join(
            f"PASS kgen:kgen_support_uniform_n{n}\n" for n in range(3, 9)
        ) + "OK (0 failing checks)\n"

    @pytest.mark.parametrize("argv, stdout", GOLDEN_COMMANDS)
    def test_command(self, argv, stdout, capsys):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == stdout

    @pytest.fixture
    def n12_files(self, tmp_path, capsys):
        inst, samples = tmp_path / "inst.json", tmp_path / "samples.txt"
        assert main(["instance", "--n", "12", "--seed", "1", "--out", str(inst)]) == 0
        assert main(["sample", "--instance", str(inst), "--key", "5", "--count", "50",
                     "--seed", "1", "--out", str(samples)]) == 0
        capsys.readouterr()
        return inst, samples

    def test_sample_to_stdout(self, n12_files, capsys):
        code, out, _ = run_cli(capsys, "sample", "--instance", str(n12_files[0]),
                               "--key", "3", "--count", "3", "--seed", "2")
        assert code == 0
        assert out == (
            "101000001100000110101101101000010011011100011001100010101011\n"
            "010000110100000101111010101000010011011100011001100010101011\n"
            "000100010010001001001111101000010011011100011001100010101011\n"
        )

    def test_sample_at_n64_to_stdout(self, tmp_path, capsys):
        # n = 64 walks every line, the first included, through the tables.
        inst = tmp_path / "inst.json"
        assert main(["instance", "--n", "64", "--seed", "1", "--out", str(inst)]) == 0
        code, out, _ = run_cli(capsys, "sample", "--instance", str(inst),
                               "--key", "123456789", "--count", "3", "--seed", "1")
        assert code == 0
        suffix = (
            "101011000010001001111100100110011010100000001010001001100001011110011011110101101001"
            "101110101111000010100010111111101010100110110110001000100000010110101110111000001110"
            "001101001101100100111100\n"
        )
        assert out == (
            "1100110111011000001001100100011010001100001101110100111100101100"
            "0011000000110101100000111111001011001001000011001000001111110011" + suffix
            + "0000111010110111011111101010111000110001100111011010100100111011"
            "0001000111001110010001100011011000010010011110101011000001011101" + suffix
            + "0110110101011000101110000101111000100101100111100000110011011010"
            "0011100110001101101000110111110011010001000111101000101101001100" + suffix
        )

    @pytest.mark.parametrize("argv, tail", [
        ([], ""),
        (["--target-key", "4"], ',\n  "kl_to_target": "inf",\n  "target_key_matched": "false"'),
    ], ids=["no-target-key", "wrong-target-key"])
    def test_learn_variants_on_n12_sample(self, argv, tail, n12_files, capsys):
        code, out, _ = run_cli(capsys, "learn", "--samples", str(n12_files[1]), *argv)
        assert code == 0
        assert out == (
            '{\n  "n": "12",\n  "p": "2579",\n  "q": "1289",\n  "g": "1817",\n'
            '  "g_a": "2219",\n  "key": "5",\n  "samples_used": "1"' + tail + "\n}\n"
        )


class TestParser:
    def test_one_parser_serves_every_call(self, capsys):
        # main() reuses one parser; a usage error or a default leaves nothing
        # behind for the next command.
        assert build_parser() is build_parser()
        with pytest.raises(SystemExit):
            main(["instance", "--n", "x"])
        first = run_cli(capsys, "instance", "--n", "6", "--seed", "42", "--format", "text")
        again = run_cli(capsys, "instance", "--n", "6", "--seed", "42")
        assert first[0] == again[0] == 0
        assert json.loads(again[1])["n"] == "6"
        assert first[1] != again[1]


class TestEntryPoint:
    def test_module_invocation(self, cli_env):
        proc = subprocess.run(
            [sys.executable, "-m", "genlearn", "instance", "--n", "3", "--seed", "1"],
            capture_output=True,
            text=True,
            env=cli_env,
        )
        assert proc.returncode == 0
        assert int(json.loads(proc.stdout)["p"]) == 7

    def test_help_available_everywhere(self, cli_env):
        for cmd in ("instance", "sample", "learn", "game", "verify"):
            proc = subprocess.run(
                [sys.executable, "-m", "genlearn", cmd, "--help"],
                capture_output=True,
                text=True,
                env=cli_env,
            )
            assert proc.returncode == 0
            assert "--" in proc.stdout
            # Only the commands that draw randomness take a seed.
            assert ("--seed SEED" in proc.stdout) == (cmd in ("instance", "sample", "game"))

    def test_import_leaves_openssl_unloaded(self, cli_env):
        # Subseeds use the interpreter's built-in SHA-256; importing hashlib
        # would load OpenSSL's libcrypto into every command.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, genlearn.cli; print('_hashlib' in sys.modules)"],
            capture_output=True,
            text=True,
            env=cli_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_leaves_dataclasses_and_inspect_unloaded(self):
        # The records are NamedTuples: `dataclasses` would bring in inspect, ast,
        # dis and tokenize, about half of a fresh command's start-up time.
        root = str(Path(genlearn.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-I", "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
             "import genlearn.cli; "
             "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))", root],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_leaves_fractions_unloaded(self):
        # Only exact tables, TV/disagreement values and the verify suites need
        # Fraction (which loads decimal and numbers).
        root = str(Path(genlearn.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-I", "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); import genlearn.cli; "
             "print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))", root],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_games_leave_fractions_unloaded(self):
        # The benchmarked games build no table: Fraction stays out of them.
        root = str(Path(genlearn.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-I", "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); from genlearn.cli import main; "
             "main(['game', '--game', 'reduction', '--learner', 'exact', '--trials', '4', "
             "'--seed', '1']); "
             "main(['game', '--game', 'distinguish', '--adversary', 'keylearner', '--n', '8', "
             "'--trials', '4', '--seed', '1']); "
             "print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))", root],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
