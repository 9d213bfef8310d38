import json
import math
import os
import stat

import numpy as np
import pytest

from sparse_rips import filtration
from sparse_rips.cli import build_parser, main
from sparse_rips.persistence import diagram_from_json, diagram_to_json


def write_square(tmp_path):
    f = tmp_path / "square.csv"
    f.write_text("0,0\n1,0\n1,1\n0,1\n")
    return f


def write_random(tmp_path, n, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    f = tmp_path / f"pts{n}.csv"
    f.write_text("\n".join(f"{x},{y}" for x, y in pts) + "\n")
    return f


def test_build_smoke(tmp_path, capsys):
    src = write_square(tmp_path)
    out = tmp_path / "filt.txt"
    code = main(["build", "--input", str(src), "--epsilon", "0.1",
                 "--k", "2", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "dim 0: 4 simplices" in text
    assert "max |E(p)|" in text
    assert out.exists()


def test_build_deterministic_output(tmp_path):
    src = write_random(tmp_path, 18, seed=5)
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["build", "--input", str(src), "--epsilon", "0.25",
                 "--k", "2", "--out", str(out1)]) == 0
    assert main(["build", "--input", str(src), "--epsilon", "0.25",
                 "--k", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=["022", "027"])
def test_output_files_get_the_mode_of_the_umask(tmp_path, umask, mode):
    # every --out file is written through a temporary that replaces it; it
    # must get the mode a plain open gives, as --schedule-out does
    src = write_random(tmp_path, 12, seed=9)
    outs = {name: tmp_path / name for name in ("filt.txt", "schedule.csv", "dgm.json",
                                               "stats.csv")}
    old = os.umask(umask)
    try:
        assert main(["build", "--input", str(src), "--epsilon", "0.25",
                     "--out", str(outs["filt.txt"]),
                     "--schedule-out", str(outs["schedule.csv"])]) == 0
        assert main(["persist", "--filtration", str(outs["filt.txt"]),
                     "--out", str(outs["dgm.json"])]) == 0
        assert main(["stats", "--generator", "circle", "--n", "12", "--epsilon", "0.2",
                     "--out", str(outs["stats.csv"])]) == 0
    finally:
        os.umask(old)
    modes = {name: stat.S_IMODE(path.stat().st_mode) for name, path in outs.items()}
    assert modes == dict.fromkeys(outs, mode)


def test_a_failed_build_leaves_the_old_file_and_no_temporary(tmp_path, monkeypatch, capsys):
    src = write_random(tmp_path, 12, seed=9)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "filt.txt"
    out.write_bytes(b"0.0 0\r\nan older file\n")
    chunks = filtration._filtration_chunks

    def failing(f):   # the header goes out, then the disk fills up
        yield next(chunks(f))
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(filtration, "_filtration_chunks", failing)
    assert main(["build", "--input", str(src), "--epsilon", "0.25",
                 "--out", str(out)]) == 1
    assert "No space left on device" in capsys.readouterr().err
    assert out.read_bytes() == b"0.0 0\r\nan older file\n"
    assert os.listdir(out_dir) == ["filt.txt"]


def test_a_failed_schedule_write_leaves_the_old_schedule_and_no_temporary(tmp_path,
                                                                         monkeypatch, capsys):
    # the schedule is written after the filtration file, through a temporary
    # that replaces it only once it is whole, as --out is
    src = write_random(tmp_path, 12, seed=9)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out, schedule = out_dir / "filt.txt", out_dir / "schedule.csv"
    schedule.write_bytes(b"index,greedy_position\r\nan older schedule\n")
    fdopen, opened = os.fdopen, []

    class Full:   # part of the text goes out, then the disk fills up
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def writelines(self, chunks):
            self.fh.write(b"".join(chunks)[:20])
            raise OSError(28, "No space left on device")

    def second_fails(fd, *args, **kwargs):   # the filtration file is opened first
        opened.append(fd)
        fh = fdopen(fd, *args, **kwargs)
        return Full(fh) if len(opened) == 2 else fh

    args = ["build", "--input", str(src), "--epsilon", "0.25", "--out", str(out),
            "--schedule-out", str(schedule)]
    monkeypatch.setattr(os, "fdopen", second_fails)
    assert main(args) == 1
    monkeypatch.undo()
    assert "No space left on device" in capsys.readouterr().err
    assert schedule.read_bytes() == b"index,greedy_position\r\nan older schedule\n"
    assert sorted(os.listdir(out_dir)) == ["filt.txt", "schedule.csv"]
    written = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == written
    assert schedule.read_bytes().startswith(b"index,greedy_position,insertion_radius,")


def test_build_epsilon_usage_error(tmp_path):
    src = write_square(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["build", "--input", str(src), "--epsilon", "0.5",
              "--out", str(tmp_path / "x.txt")])
    assert exc.value.code == 2


def test_build_empty_file_is_data_error(tmp_path, capsys):
    src = tmp_path / "empty.csv"
    src.write_text("")
    code = main(["build", "--input", str(src), "--epsilon", "0.1",
                 "--out", str(tmp_path / "x.txt")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_persist_full_rips_square(tmp_path, capsys):
    src = write_square(tmp_path)
    out = tmp_path / "dgm.json"
    code = main(["persist", "--input", str(src), "--full",
                 "--alpha-max", "2.0", "--k", "2", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    h1 = [e for e in doc["diagrams"] if e["dim"] == 1][0]["pairs"]
    assert len(h1) == 1
    assert h1[0][0] == pytest.approx(1.0)
    assert h1[0][1] == pytest.approx(1.4142135623730951)


def test_persist_full_with_an_infinite_alpha_max_writes_strict_json(tmp_path):
    # alpha_max = inf is written as "inf", as deaths are, not as Infinity
    src = write_square(tmp_path)
    out = tmp_path / "dgm.json"
    assert main(["persist", "--input", str(src), "--full", "--alpha-max", "inf",
                 "--k", "2", "--out", str(out)]) == 0
    text = out.read_text()

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    assert json.loads(text, parse_constant=refuse)["alpha_max"] == "inf"
    dgm = diagram_from_json(text)
    assert dgm.alpha_max == math.inf
    assert diagram_to_json(dgm) + "\n" == text


def test_persist_single_point(tmp_path):
    src = tmp_path / "one.csv"
    src.write_text("0,0\n")
    out = tmp_path / "dgm.json"
    assert main(["persist", "--input", str(src), "--epsilon", "0.1",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["diagrams"][0]["pairs"] == [[0.0, "inf"]]


def test_persist_round_trip_through_filtration_file(tmp_path):
    src = write_random(tmp_path, 12, seed=9)
    filt_file = tmp_path / "filt.txt"
    assert main(["build", "--input", str(src), "--epsilon", "0.3",
                 "--k", "2", "--out", str(filt_file)]) == 0
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["persist", "--filtration", str(filt_file),
                 "--out", str(out1)]) == 0
    assert main(["persist", "--input", str(src), "--epsilon", "0.3",
                 "--k", "2", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


@pytest.mark.parametrize("text", ["0.0 0\n0.0 1\n0.0 5\n",
                                  "# k=0 kind=sparse_S alpha_max=none\n0.0 3\n"])
def test_persist_vertex_only_filtration_file(tmp_path, text):
    src = tmp_path / "vertices.txt"
    src.write_text(text)
    out = tmp_path / "dgm.json"
    assert main(["persist", "--filtration", str(src), "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == {"alpha_max": None, "diagrams": [], "k": 0}


def test_persist_missing_face_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("# k=2 kind=sparse_S alpha_max=none\n"
                   "0.0 0\n0.0 1\n0.0 2\n1.0 0 1\n2.0 0 1 2\n")
    code = main(["persist", "--filtration", str(bad),
                 "--out", str(tmp_path / "x.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert "missing face" in err and "(1, 2)" in err


def test_persist_rejects_coface_born_before_its_faces(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("# k=2 kind=sparse_S alpha_max=none\n"
                   "0.0 0\n0.0 1\n0.0 2\n5.0 0 1\n5.0 0 2\n5.0 1 2\n1.0 0 1 2\n")
    out = tmp_path / "x.json"
    code = main(["persist", "--filtration", str(bad), "--out", str(out)])
    assert code == 1
    assert "out of order" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("# k=abc kind=sparse_S alpha_max=none\n0.0 0\n",
     "malformed header line 1: k='abc' is not an integer"),
    ("# k=1 kind=sparse_S\n0.0 0\n\n# alpha_max=xyz\n",
     "malformed header line 4: alpha_max='xyz' is not a positive number"),
    ("# k=1\n0.0 0\n0.0 9223372036854775807\n0.0 9223372036854775808\n",
     "vertex label outside the int64 range on line 4: '0.0 9223372036854775808'"),
    ("# k=1\n0.0 -9223372036854775809\n0.0 0\n",
     "vertex label outside the int64 range on line 2: '0.0 -9223372036854775809'"),
])
def test_persist_names_the_line_of_a_bad_header_or_label(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    code = main(["persist", "--filtration", str(bad), "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


def test_persist_csv_output(tmp_path):
    src = write_square(tmp_path)
    out = tmp_path / "dgm.csv"
    assert main(["persist", "--input", str(src), "--full", "--alpha-max",
                 "2.0", "--csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "dim,birth,death"
    assert any(line.startswith("1,1.0,") for line in lines)


def test_persist_requires_exactly_one_source(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["persist", "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2


@pytest.mark.parametrize("source, extra, refused", [
    ("--filtration", ["--full", "--alpha-max", "2"], "--full does not go with --filtration"),
    ("--filtration", ["--alpha-max", "2"], "--alpha-max does not go with --filtration"),
    ("--filtration", ["--epsilon", "0.2"], "--epsilon does not go with --filtration"),
    ("--input", ["--full", "--alpha-max", "2", "--epsilon", "0.2"],
     "--epsilon does not go with --full"),
    ("--input", ["--epsilon", "0.2", "--alpha-max", "2"],
     "--alpha-max does not go with a sparse build"),
    ("--filtration", ["--k", "1"], "--k does not go with --filtration"),
    ("--filtration", ["--seed", "7"], "--seed does not go with --filtration"),
    ("--input", ["--full", "--alpha-max", "2", "--seed", "1"], "--seed does not go with --full"),
])
def test_persist_refuses_the_options_of_another_source(tmp_path, capsys, source, extra,
                                                       refused):
    # an option the chosen source would ignore is a usage error, not dropped
    src = write_square(tmp_path)
    filt_file = tmp_path / "filt.txt"
    assert main(["build", "--input", str(src), "--epsilon", "0.2",
                 "--out", str(filt_file)]) == 0
    capsys.readouterr()
    out = tmp_path / "dgm.json"
    path = filt_file if source == "--filtration" else src
    with pytest.raises(SystemExit) as exc:
        main(["persist", source, str(path), *extra, "--out", str(out)])
    assert exc.value.code == 2
    assert refused in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra, message", [
    (["--full"], "--full requires a positive --alpha-max"),
    (["--full", "--alpha-max", "0"], "--full requires a positive --alpha-max"),
    ([], "building in-process requires --epsilon"),
    (["--epsilon", "0.5"], "--epsilon must be in (0, 1/3], got 0.5"),
    (["--epsilon", "0.2", "--k", "0"], "--k must be >= 1, got 0"),
    (["--full", "--alpha-max", "nan"], "--full requires a positive --alpha-max"),
])
def test_persist_usage_errors_come_before_the_input_is_read(tmp_path, capsys, extra,
                                                            message):
    # the input file does not exist: a usage error must not wait for it
    out = tmp_path / "dgm.json"
    with pytest.raises(SystemExit) as exc:
        main(["persist", "--input", str(tmp_path / "missing.csv"), *extra,
              "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_persist_k_and_seed_default_to_2_and_0_in_process(tmp_path):
    src = write_random(tmp_path, 12, seed=9)
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    assert main(["persist", "--input", str(src), "--epsilon", "0.3",
                 "--out", str(outs[0])]) == 0
    assert main(["persist", "--input", str(src), "--epsilon", "0.3", "--k", "2",
                 "--seed", "0", "--out", str(outs[1])]) == 0
    assert outs[0].read_text() == outs[1].read_text()
    assert json.loads(outs[0].read_text())["k"] == 2


def test_verify_random_points_pass(tmp_path, capsys):
    src = write_random(tmp_path, 20, seed=11)
    code = main(["verify", "--input", str(src), "--epsilon", "0.3333",
                 "--k", "2", "--samples", "8"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out


@pytest.mark.parametrize("command", ["build", "persist", "verify"])
@pytest.mark.parametrize("seed", [4, -1])
def test_seed_out_of_range_is_data_error(tmp_path, capsys, command, seed):
    # five rows, one a duplicate: n = 4 after deduplication
    src = tmp_path / "square.csv"
    src.write_text("0,0\n1,0\n1,1\n0,1\n0,0\n")
    argv = [command, "--input", str(src), "--epsilon", "0.3", "--seed", str(seed)]
    if command != "verify":
        argv += ["--out", str(tmp_path / "out.txt")]
    with pytest.warns(UserWarning, match="duplicate"):
        code = main(argv)
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: --seed {seed} out of range for n=4\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("command, option", [("verify", "--samples"), ("stats", "--trials")])
@pytest.mark.parametrize("value", ["-5", "0"])
def test_counts_below_one_are_usage_errors(tmp_path, capsys, command, option, value):
    out = tmp_path / "s.csv"
    argv = {"verify": ["verify", "--input", str(write_square(tmp_path)), "--epsilon", "0.3"],
            "stats": ["stats", "--generator", "uniform2d", "--n", "10", "--epsilon", "0.1",
                      "--out", str(out)]}[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, value])
    assert exc.value.code == 2
    assert f"{option} must be >= 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_stats_negative_seed_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "s.csv"
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--generator", "uniform2d", "--n", "10", "--epsilon", "0.1",
              "--seed", "-1", "--out", str(out)])
    assert exc.value.code == 2
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_verify_guard_refusal(tmp_path, capsys):
    src = write_random(tmp_path, 200, seed=12)
    code = main(["verify", "--input", str(src), "--epsilon", "0.25"])
    assert code == 2
    assert "refusing" in capsys.readouterr().err


def test_stats_smoke_and_n1(tmp_path, capsys):
    out = tmp_path / "stats.csv"
    code = main(["stats", "--generator", "uniform2d", "--n", "1,30",
                 "--epsilon", "0.1", "--k", "2", "--trials", "2",
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,epsilon,k,simplex_count,max_degree,seconds"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "1" and first[3] == "1" and first[4] == "0"


def test_stats_unknown_generator(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--generator", "nope", "--n", "10",
              "--epsilon", "0.1", "--out", str(tmp_path / "s.csv")])
    assert exc.value.code == 2


def test_stats_bad_sizes(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--generator", "uniform2d", "--n", "10,x",
              "--epsilon", "0.1", "--out", str(tmp_path / "s.csv")])
    assert exc.value.code == 2


def test_matrix_input(tmp_path):
    mat = tmp_path / "mat.csv"
    mat.write_text("0,1,2\n1,0,1\n2,1,0\n")
    out = tmp_path / "filt.txt"
    assert main(["build", "--input", str(mat), "--metric", "matrix",
                 "--epsilon", "0.25", "--k", "1", "--out", str(out)]) == 0
    assert out.exists()


def test_stats_deterministic_except_seconds(tmp_path):
    outs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        assert main(["stats", "--generator", "circle", "--n", "12,24",
                     "--epsilon", "0.2", "--k", "2", "--trials", "2",
                     "--seed", "3", "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().strip().splitlines()]
        outs.append([r[:5] for r in rows])  # drop the seconds column
    assert outs[0] == outs[1]


def test_input_options_have_the_same_choices():
    # build, persist and verify read the same inputs, so they offer one set of choices
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices

    def choices(command, option):
        return next(a.choices for a in commands[command]._actions if option in a.option_strings)

    for option in ("--metric", "--format"):
        assert choices("build", option) == choices("persist", option) == choices("verify", option)
        assert choices("build", option)
