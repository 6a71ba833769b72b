"""Command line behavior: outputs, exit codes, library agreement."""

import hashlib
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import pytest

import fintopo
from fintopo import (
    ContinuityClass,
    EnumerationBudget,
    SetClass,
    SpaceMap,
    build_topology,
    closure,
    encode_map,
    encode_space,
    interior,
    is_continuous_in,
    is_in_class,
    replay_witness,
    serialize_report,
    setclasses,
    theorems,
    verify,
)
from fintopo import cli
from fintopo.cli import main
from fintopo.setclasses import WITNESS_FUNCTIONS

from helpers import (
    FakePool,
    four_point_space,
    random_preorder_topology,
    sierpinski,
    three_point_space,
    where,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def space_files(tmp_path):
    paths = {}
    for name, t in [
        ("e4", four_point_space()),
        ("e3", three_point_space()),
        ("sierp", sierpinski()),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(encode_space(t)))
        paths[name] = str(path)
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(
        encode_map(SpaceMap(three_point_space(), sierpinski(), (0, 1, 1)))
    ))
    paths["map"] = str(map_path)
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps({
        "points": ["a", "b", "c"],
        "opens": [[], ["a"], ["b"], ["a", "b", "c"]],
    }))
    paths["bad"] = str(bad_path)
    return paths


def _class_lines(out):
    verdicts = {}
    for line in out.splitlines()[1:]:
        name, _, rest = line.strip().partition(": ")
        verdicts[name] = rest.startswith("yes")
    return verdicts


def test_classify_set_matches_library(space_files, capsys):
    assert main(["classify-set", space_files["e4"], "b", "c"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "subset {b,c} in space on 4 point(s)"
    verdicts = _class_lines(out)
    t = four_point_space()
    for cls in SetClass:
        assert verdicts[cls.value] == is_in_class(t, 0b0110, cls)


def test_classify_set_witness_brackets(space_files, capsys):
    main(["classify-set", space_files["e4"], "b", "c"])
    out = capsys.readouterr().out
    assert "  AB-set: yes  [open {a,b,c,d} & semi-regular {b,c}]" in out
    assert "  B-set: yes  [open {a,b,c,d} & semi-closed {b,c}]" in out
    assert "  locally-closed: no" in out
    assert "  open: no" in out


def test_classify_set_empty_subset(space_files, capsys):
    assert main(["classify-set", space_files["e3"]]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "subset {} in space on 3 point(s)"
    assert "  open: yes" in out


def test_classify_set_unknown_point(space_files, capsys):
    assert main(["classify-set", space_files["e3"], "zz"]) == 2
    assert "unknown point" in capsys.readouterr().err


def test_classify_space_lines(space_files, capsys):
    assert main(["classify-space", space_files["e3"]]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "space on 3 point(s) with 3 open set(s)"
    assert "  extremally-disconnected: yes" in out
    assert "  submaximal: no" in out
    assert "  hyperconnected: yes" in out
    assert "  semi-connected: yes" in out
    assert "  discrete: no" in out


def test_classify_map_lines(space_files, capsys):
    assert main(["classify-map", space_files["map"]]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == (
        "map [a->a, b->b, c->b] between spaces on 3 and 2 point(s)"
    )
    assert "  continuous: yes" in out
    assert "  AB-continuous: yes" in out
    assert "  strongly-irresolute: no" in out


def test_corrupted_space_names_axiom_witness(space_files, capsys):
    assert main(["classify-set", space_files["bad"], "a"]) == 2
    err = capsys.readouterr().err
    assert "not closed under union" in err
    assert "witness opens {a} and {b}" in err


def test_map_with_corrupted_domain_names_axiom_witness(tmp_path, capsys):
    bad = {"points": ["a", "b", "c"],
           "opens": [[], ["a"], ["b"], ["a", "b", "c"]]}
    path = tmp_path / "badmap.json"
    path.write_text(json.dumps({
        "domain": bad,
        "codomain": encode_space(sierpinski()),
        "assignment": {"a": "a", "b": "a", "c": "b"},
    }))
    assert main(["classify-map", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: invalid topology: not closed under union; "
        "witness opens {a} and {b}\n"
    )


def test_missing_file_is_usage_error(capsys):
    assert main(["classify-space", "/nonexistent.json"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_verify_single_proposition(capsys):
    assert main(["verify", "t4", "--max-n", "2"]) == 0
    out = capsys.readouterr().out
    assert "t4: holds-exhaustively" in out


def test_verify_negative_max_n_names_the_field(capsys):
    assert main(["verify", "t4", "--max-n", "-1"]) == 2
    assert capsys.readouterr().err == (
        "error: max_n must be non-negative, got -1\n"
    )


def test_verify_budget_flags_reach_the_acceptance_witness(tmp_path, capsys):
    path = tmp_path / "report.json"
    argv = ["verify", "nonrev-s41-i", "--max-n", "4", "--codomain-max-n",
            "2", "--report", str(path)]
    assert main(argv) == 0
    assert "nonrev-s41-i: witness-found" in capsys.readouterr().out
    capped = EnumerationBudget(max_n=4, codomain_max_n=2)
    assert path.read_text() == serialize_report(
        [verify("nonrev-s41-i", capped)])


def test_verify_unset_budget_flags_keep_scope_defaults(tmp_path):
    # one map fewer than the 24,907 of the default map budget refuses the
    # map sweep, while t4 keeps its four-point default
    path = tmp_path / "report.json"
    argv = ["verify", "s41-i", "t4", "--max-maps", "24906", "--max-spaces",
            "355", "--report", str(path)]
    assert main(argv) == 1
    s41, t4 = json.loads(path.read_text())
    assert s41["budget"] == {"max_n": 3, "max_spaces": 355, "max_maps": 24906}
    assert s41["verdict"] == "budget-exhausted"
    assert t4["budget"] == {"max_n": 4, "max_spaces": 355, "max_maps": 24906}
    assert t4["verdict"] == "holds-exhaustively"


def test_verify_refused_map_budget_builds_no_labeled_space(monkeypatch,
                                                          capsys):
    # seven points hold more than the default 1,000,000 spaces; the
    # refusal reads orbit sums and enumerates no labeled topology
    def refuse(*args, **kwargs):
        raise AssertionError("labeled topologies built for a refused sweep")

    monkeypatch.setattr(theorems, "enumerate_topologies", refuse)
    assert main(["verify", "s41-i", "--max-n", "7"]) == 1
    assert capsys.readouterr().out == "s41-i: budget-exhausted  FAILED\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--max-maps", "0", "max_maps must be positive, got 0"),
    ("--max-spaces", "0", "max_spaces must be positive, got 0"),
    ("--max-spaces", "-2", "max_spaces must be positive, got -2"),
    ("--codomain-max-n", "-1", "codomain_max_n must be non-negative, got -1"),
])
def test_verify_bad_budget_flag_is_usage_error(capsys, flag, value, message):
    assert main(["verify", "all", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_witness_line_replays(capsys):
    assert main(["verify", "nonrev-ab-b", "--max-n", "2"]) == 0
    out = capsys.readouterr().out
    assert "nonrev-ab-b: witness-found" in out
    witness_line = next(
        line for line in out.splitlines()
        if line.strip().startswith("example-for-existential")
    )
    doc = json.loads(witness_line.split(": ", 1)[1])
    assert replay_witness(doc) is True


def test_verify_exploratory_note(capsys):
    assert main(["verify", "equiv-strirr-scl", "--max-n", "2"]) == 0
    assert "(exploratory)" in capsys.readouterr().out


def test_verify_unknown_id(capsys):
    assert main(["verify", "bogus-claim"]) == 2
    assert "bogus-claim" in capsys.readouterr().err


def test_verify_report_file(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main([
        "verify", "t4", "t5", "--max-n", "2", "--report", str(report_path),
    ])
    assert code == 0
    docs = json.loads(report_path.read_text())
    assert [d["proposition"] for d in docs] == ["t4", "t5"]
    assert all(d["verdict"] == "holds-exhaustively" for d in docs)
    assert f"report written to {report_path}" in capsys.readouterr().out


def test_verify_unwritable_report_is_usage_error(tmp_path, capsys):
    report_path = tmp_path / "missing" / "report.json"
    code = main(["verify", "t4", "--max-n", "1", "--report", str(report_path)])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "t4: holds-exhaustively\n"
    assert err.startswith(f"error: cannot write report {report_path}")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not report_path.parent.exists()


def test_verify_all_small_budget(capsys):
    assert main(["verify", "all", "--max-n", "2"]) == 0
    out = capsys.readouterr().out
    assert "t00: holds-exhaustively" in out
    assert "s42: holds-exhaustively" in out
    # inconclusive existentials are reported but do not fail the run
    assert "nonrev-ab-so: budget-exhausted" in out
    assert "FAILED" not in out


def test_verify_workers_below_one_is_usage_error(monkeypatch, capsys):
    made = []
    monkeypatch.setattr(theorems, "Pool", partial(FakePool, made))
    for workers in ("0", "-1"):
        code = main(["verify", "all", "--parallel", "--workers", workers])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
    assert made == []


def test_verify_parallel_flags_change_nothing(tmp_path, capsys):
    # the sweep picks its pool itself; the flags are only accepted
    path = tmp_path / "report.json"
    runs = set()
    for flags in ([], ["--parallel", "--workers", "2"],
                  ["--parallel", "--workers", "100000"]):
        assert main(["verify", "all", "--report", str(path), *flags]) == 0
        runs.add((capsys.readouterr().out, path.read_bytes()))
    assert len(runs) == 1


def test_enumerate_count_only(capsys):
    assert main(["enumerate", "--n", "3", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "29"


def test_enumerate_streams_documents(capsys):
    assert main(["enumerate", "--n", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    docs = [json.loads(line) for line in lines]
    assert all(set(d) == {"points", "opens"} for d in docs)
    assert docs[0]["opens"] == [[], ["a", "b"]]


# recorded before encode_space may change: the stdout of enumerate --n 5
ENUMERATE_N5_SHA256 = (
    "ad1b555c2272e762e58fa1d6caf5c08ee64dacaab67b67cd7a63264ac5dfa443"
)


def test_enumerate_n5_output_pinned(capsys):
    assert main(["enumerate", "--n", "5"]) == 0
    out = capsys.readouterr().out.encode()
    assert (out.count(b"\n"), len(out)) == (6942, 1_315_450)
    assert hashlib.sha256(out).hexdigest() == ENUMERATE_N5_SHA256


# recorded before cmd_enumerate named each mask once per stream: the
# stdout of enumerate --n 6
ENUMERATE_N6_SHA256 = (
    "2cc8cc02801193135f94bcb62e887a60d284f04332585dc8b853c4fe3ad26a4f"
)


@pytest.mark.skipif(os.environ.get("FINTOPO_BIG_SWEEPS") != "1",
                    reason="set FINTOPO_BIG_SWEEPS=1 to enable")
def test_enumerate_n6_output_pinned(capsys):
    assert main(["enumerate", "--n", "6"]) == 0
    out = capsys.readouterr().out.encode()
    assert (out.count(b"\n"), len(out)) == (209_527, 60_550_406)
    assert hashlib.sha256(out).hexdigest() == ENUMERATE_N6_SHA256


def test_enumerate_cap(capsys):
    assert main(["enumerate", "--n", "7"]) == 2
    assert "capped" in capsys.readouterr().err


def test_enumerate_negative_n_names_the_flag(capsys):
    assert main(["enumerate", "--n", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --n must be non-negative, got -1\n"
    assert captured.out == ""


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2


def _fresh_run(argv, cwd=None):
    """(exit code, stdout, stderr) of the CLI in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-m", "fintopo.cli", *argv], capture_output=True,
        cwd=cwd, env={**os.environ, "PYTHONPATH": SRC, "COLUMNS": "80"},
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_one_process_answers_like_fresh_ones(space_files, capsys,
                                            monkeypatch):
    # main() builds its parser at most once per process; every call, read
    # with or without it, must print and exit as in a fresh process
    monkeypatch.setenv("COLUMNS", "80")  # the width --help wraps at
    calls = [
        ["classify-set", space_files["e4"], "b", "c"],
        ["verify", "t00", "--max-n", "x"],
        ["classify-space", space_files["e3"]],
        ["--help"],
    ]
    for argv in calls:
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out.encode(), err.encode()) == _fresh_run(argv)


# sha256 of the exit code, stdout and stderr (joined by NUL bytes) of
# help, usage errors and argument forms only argparse reads, recorded
# with COLUMNS=80 under Python 3.11 while argparse parsed every call;
# "space.json" has the points a and -x
USAGE_SHA256 = [
    (["--help"],
     "4f1ad0dc3d838f980f73d043b3914ad98797e06fcddbff379462349bf207f275"),
    (["classify-set", "-h"],
     "210941a2ec0519ef9943da7ef597c6fa70aa849a6fd882ee22a345bacf6bc351"),
    (["classify-space", "-h"],
     "e95f3db44d290d7c8610c228543f6a32498fdc9432f68e4fe536dc342f8a256c"),
    (["classify-map", "-h"],
     "4ba7448582987b65d5ca2e576e141cf405cf5e34a97eecce73f2ec2adbd036f5"),
    (["verify", "-h"],
     "417ce6c55fd99409970739e5c0ba20ebbb73cf2e0c0c3f06ef6bdabec79d24b2"),
    (["enumerate", "-h"],
     "323bb4f928daf042c2c1aa2a4051901e6ade3f3aa1628a26c6f2a04726444a0d"),
    ([],
     "235de1555b68edf1f9fc88477b252cc661d5c1e8f294cf09d2ea7bba74bbe02a"),
    (["frobnicate"],
     "880fbe27364ceb392d071b0dbf5513c883bffd85410659cd8895901b653d058a"),
    (["enumerate"],
     "31be5503dcd611986190c4a32826f1ead485d736da03517b8064b5a6d1f6f7bd"),
    (["enumerate", "--n", "x"],
     "c65beadb9511e42f65f3695270aaa6e4388b600e00ea846b746cb42af7e6a4fe"),
    (["enumerate", "--n=2", "--count-only"],
     "f38c2765cfa197dbbb6b9b1a584a186b8255b0a1db17fc0b9ddc675922fe747d"),
    (["enumerate", "--n", "2", "--count"],
     "f38c2765cfa197dbbb6b9b1a584a186b8255b0a1db17fc0b9ddc675922fe747d"),
    (["verify", "t00", "--max-n", "2", "extra", "--report"],
     "ce67127d501675ae75857193ae13a28e3409d1a31dcb318455d0052ce873dec9"),
    (["classify-set", "space.json", "--", "-x"],
     "9a327b37c603142f9e67f29c4e12389589e292cb6760e7d727c57675340ace9a"),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse's texts were recorded under Python 3.11")
@pytest.mark.parametrize("argv, digest", USAGE_SHA256,
                         ids=[" ".join(a) or "no-arguments"
                              for a, _ in USAGE_SHA256])
def test_help_and_usage_errors_keep_their_bytes(tmp_path, argv, digest):
    (tmp_path / "space.json").write_text(json.dumps(
        {"points": ["a", "-x"], "opens": [[], ["a"], ["a", "-x"]]}))
    code, out, err = _fresh_run(argv, tmp_path)
    got = hashlib.sha256(b"\0".join([str(code).encode(), out, err]))
    assert got.hexdigest() == digest, (code, out, err)


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full, a device every write to fails")
@pytest.mark.parametrize("argv", [["enumerate", "--n", "3"],
                                  ["enumerate", "--n", "5"],
                                  ["verify", "t1", "--max-n", "1"]],
                         ids=" ".join)
def test_full_stdout_is_one_error_line(argv):
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "fintopo.cli", *argv], stdout=full,
            stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write output: No space left on device\n"


def _parsed(argv):
    """vars() of what _read_argv reads from argv, checked against argparse;
    None where _read_argv leaves argv to argparse."""
    args = cli._read_argv(argv)
    if args is None:
        return None
    # parse_args exits on a usage error, so a form _read_argv accepts
    # but argparse refuses fails here
    assert vars(args) == vars(cli.build_parser().parse_args(argv)), argv
    return vars(args)


_ODD_TOKENS = ["", "-1", "-x", "--", "-", "=", "-0", "007", "+5", " 5",
               "\u0663", "a b", "all", "t00", "x=1", "-1.5", "9" * 5000]


def _random_argv(rng):
    """A call built from COMMANDS, then perhaps put out of shape."""
    command = rng.choice(list(cli.COMMANDS))
    _, _, positionals, flags = cli.COMMANDS[command]
    argv = [command]
    for _, nargs, _ in positionals:
        count = 1 if nargs is None else rng.randrange(3)
        argv += [rng.choice(["a", "b", "all", "t00", "p.json", ""])
                 for _ in range(count)]
    for flag in rng.sample(list(flags), rng.randrange(len(flags) + 1)):
        kind = flags[flag][0]
        argv.append(flag)
        if kind is not bool and rng.random() < 0.2:
            argv.append(rng.choice(_ODD_TOKENS))
        elif kind is int:
            argv.append(str(rng.randrange(-3, 300)))
        elif kind is str:
            argv.append(rng.choice(["out.json", "r", ""]))
    for _ in range(rng.choice([0, 0, 1, 2])):
        i = rng.randrange(len(argv) + 1)
        token = rng.choice([
            rng.choice(_ODD_TOKENS),
            rng.choice(list(cli.COMMANDS) + ["verif", "-h", "--help"]),
            *[f"{flag}={rng.randrange(5)}" for flag in flags],
            *[flag[:rng.randrange(2, len(flag))] for flag in flags],
            *flags,
        ])
        if rng.random() < 0.3 and len(argv) > 1:
            argv[rng.randrange(len(argv))] = token
        elif rng.random() < 0.2 and len(argv) > 1:
            del argv[rng.randrange(len(argv))]
        else:
            argv.insert(i, token)
    return argv


def test_read_argv_agrees_with_argparse():
    rng = random.Random(2718)
    argvs = [_random_argv(rng) for _ in range(3000)]
    read = [_parsed(argv) for argv in argvs]
    accepted = sum(r is not None for r in read)
    # both sides of the split are exercised
    assert 800 < accepted < 2200, accepted


def _readme_calls():
    """The argument lists of the README's fintopo commands, up to a pipe
    or a redirection, each bracketed option once left out and once given."""
    text = (Path(SRC).parent / "README.md").read_text(encoding="utf-8")
    lines = re.findall(r"^fintopo ([^#\n]+)", text, flags=re.M)
    lines += [m for m in re.findall(r"`fintopo ([^`|>]+)", text)
              if " " in m.strip()]
    for line in lines:
        yield re.sub(r"\[[^\]]*\]", "", line).split()
        yield re.sub(r"\[([^\]]*?)( \.\.\.)?\]", r"\1", line).split()


def _perfbench_workloads():
    """perfbench/workloads.py, loaded without writing anything."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads",
        Path(SRC).parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _classify_argvs(queries, directory):
    """The queries' argument lists, with their documents in directory."""
    return [[q["argv"][0], str(directory / q["argv"][1]), *q["argv"][2:]]
            for q in queries]


def test_read_argv_reads_every_benchmark_and_readme_call(tmp_path):
    workloads = _perfbench_workloads()
    calls = [workloads.cli_argv(w, str(tmp_path / "report.json"))
             for w in workloads.CLI_ARGV]
    _, _, queries = workloads.generate_classify(1)
    calls += _classify_argvs(queries, tmp_path)
    readme = list(_readme_calls())
    assert len(readme) >= 16
    for argv in calls + readme:
        assert _parsed(argv) is not None, argv


def test_classify_batch_grows_no_fintopo_memory(tmp_path, capsys):
    # the perfbench classify-queries batch, answered four times in one
    # process: after the first pass, which fills the bounded caches, the
    # memory that fintopo's own code allocated stays put
    _, documents, queries = _perfbench_workloads().generate_classify(1)
    for name, doc in documents.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    argvs = _classify_argvs(queries, tmp_path)
    package = [tracemalloc.Filter(
        True, str(Path(fintopo.__file__).parent / "*"))]

    def held():
        snapshot = tracemalloc.take_snapshot().filter_traces(package)
        return sum(stat.size for stat in snapshot.statistics("filename"))

    def answer_all():
        for argv in argvs:
            assert main(argv) == 0, argv
        capsys.readouterr()

    tracemalloc.start()
    try:
        answer_all()
        warm = held()
        for _ in range(3):
            answer_all()
        grown = held() - warm
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, (warm, grown)


def _chain_document(n):
    """A space document for the n-point chain: opens are the prefixes."""
    return encode_space(build_topology(n, [(1 << k) - 1 for k in range(n + 1)]))


def _assert_one_error_line(captured):
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err


def test_per_subset_commands_refuse_more_than_12_points(tmp_path, capsys):
    chain = _chain_document(13)
    chain_path = tmp_path / "chain13.json"
    chain_path.write_text(json.dumps(chain))
    assert main(["classify-set", str(chain_path), "a"]) == 2
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert "2^13 subsets" in captured.err
    small = encode_space(sierpinski())
    for domain, codomain in [(chain, small), (small, chain)]:
        doc = {
            "domain": domain,
            "codomain": codomain,
            "assignment": {p: codomain["points"][0] for p in domain["points"]},
        }
        map_path = tmp_path / "map13.json"
        map_path.write_text(json.dumps(doc))
        assert main(["classify-map", str(map_path)]) == 2
        _assert_one_error_line(capsys.readouterr())


def test_classify_space_refuses_more_than_12_points(tmp_path, capsys):
    path = tmp_path / "chain13.json"
    path.write_text(json.dumps(_chain_document(13)))
    assert main(["classify-space", str(path)]) == 2
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert "2^13 subsets" in captured.err


def test_classify_refuses_13_points_before_validating_opens(
        tmp_path, monkeypatch, capsys):
    # the 13-point discrete space has 8,192 opens; the point count
    # refuses it before they are validated
    points = [f"p{i}" for i in range(13)]
    discrete = {"points": points, "opens": [
        [p for i, p in enumerate(points) if mask >> i & 1]
        for mask in range(1 << 13)
    ]}
    space_path = tmp_path / "discrete13.json"
    space_path.write_text(json.dumps(discrete))
    map_path = tmp_path / "map13.json"
    map_path.write_text(json.dumps({
        "domain": str(space_path), "codomain": str(space_path),
        "assignment": {p: p for p in points},
    }))

    def no_validation(*args):
        raise AssertionError("opens validated for a refused space")

    monkeypatch.setattr(fintopo.documents, "build_topology", no_validation)
    for argv in (["classify-set", str(space_path), "p0"],
                 ["classify-space", str(space_path)],
                 ["classify-map", str(map_path)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        _assert_one_error_line(captured)
        assert "2^13 subsets exceed" in captured.err


def test_classify_space_accepts_12_points(tmp_path, capsys):
    path = tmp_path / "chain12.json"
    path.write_text(json.dumps(_chain_document(12)))
    assert main(["classify-space", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "space on 12 point(s) with 13 open set(s)"
    assert "  hyperconnected: yes" in out


def test_classify_set_accepts_12_points(tmp_path, capsys):
    path = tmp_path / "chain12.json"
    path.write_text(json.dumps(_chain_document(12)))
    assert main(["classify-set", str(path), "a"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "subset {a} in space on 12 point(s)"
    assert "  open: yes" in out


def test_json_nested_too_deep_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    for command in ("classify-space", "classify-set", "classify-map"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        _assert_one_error_line(captured)
        assert "not valid JSON" in captured.err


def _sparse_space(rng, n):
    # sparse seed rows keep the closed preorder away from indiscrete
    return random_preorder_topology(
        [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n)]
    )


# the label of the second member of each existential witness pair
_SECOND_LABEL = {
    SetClass.LOCALLY_CLOSED: "closed",
    SetClass.A_SET: "regular-closed",
    SetClass.B_SET: "semi-closed",
    SetClass.AB_SET: "semi-regular",
}


def _oracle_classify_set(t, points, a):
    """classify-set's stdout from the per-subset predicates."""
    def shown(mask):
        return "{" + ",".join(p for x, p in enumerate(points)
                              if mask >> x & 1) + "}"

    lines = [f"subset {shown(a)} in space on {t.n} point(s)"]
    for cls in SetClass:
        member = is_in_class(t, a, cls)
        line = f"  {cls.value}: {'yes' if member else 'no'}"
        if member and cls in WITNESS_FUNCTIONS:
            u, v = WITNESS_FUNCTIONS[cls](t, a)
            line += f"  [open {shown(u)} & {_SECOND_LABEL[cls]} {shown(v)}]"
        lines.append(line)
    return "\n".join(lines) + "\n"


def test_classify_set_matches_per_subset_oracles(tmp_path, capsys):
    rng = random.Random(2718)
    bracketed = set()
    for n in (8, 9, 10, 11, 12):
        t = _sparse_space(rng, n)
        doc = encode_space(t)
        path = tmp_path / f"space{n}.json"
        path.write_text(json.dumps(doc))
        u = rng.choice(t.opens)
        subsets = [
            rng.getrandbits(n),
            u & (t.full ^ rng.choice(t.opens)),
            u & closure(t, interior(t, rng.getrandbits(n))),
            u & (rng.getrandbits(n) | interior(t, closure(t, u))),
        ]
        for a in subsets:
            names = [p for x, p in enumerate(doc["points"]) if a >> x & 1]
            assert main(["classify-set", str(path), *names]) == 0
            out = capsys.readouterr().out
            assert out == _oracle_classify_set(t, doc["points"], a)
            bracketed.update(line.split(":")[0].strip()
                             for line in out.splitlines() if "[open" in line)
    assert bracketed == {cls.value for cls in _SECOND_LABEL}


def test_classify_set_builds_no_existential_bitmap(
        tmp_path, monkeypatch, capsys):
    # classify-set prints each existential class from its witness pair,
    # so the four bitmaps are projected only once one of them is read.
    # That read is checked against the per-subset predicates on every
    # subset of the 8-point space (they scan 2^n subsets per call), and
    # against the witness pair on every subset of the 12-point one.
    projected = []
    project = setclasses._existential_bitmaps

    def spy(t, *args):
        projected.append(t)
        return project(t, *args)

    monkeypatch.setattr(setclasses, "_existential_bitmaps", spy)
    rng = random.Random(1414)
    for n in (8, 12):
        t = _sparse_space(rng, n)
        doc = encode_space(t)
        path = tmp_path / f"space{n}.json"
        path.write_text(json.dumps(doc))
        # a locally closed set, so the output shows a witness pair
        a = rng.choice(t.opens) & (t.full ^ rng.choice(t.opens))
        names = [p for x, p in enumerate(doc["points"]) if a >> x & 1]
        setclasses.class_table.cache_clear()
        assert main(["classify-set", str(path), *names]) == 0
        assert "locally-closed: yes  [open" in capsys.readouterr().out
        assert projected == []
        table = setclasses.class_table(t)
        for cls in WITNESS_FUNCTIONS:
            if n == 8:
                want = where(t, setclasses.PREDICATES[cls])
            else:
                want = where(t, lambda t, a: table.witness(a, cls) is not None)
            assert table.family_bitmap(cls) == want, (n, cls)
        assert projected == [(t,)]
        projected.clear()


def test_classify_map_matches_per_map_oracle(tmp_path, capsys):
    rng = random.Random(1618)
    seen = {cc: set() for cc in ContinuityClass}
    for j in range(12):
        tx = _sparse_space(rng, rng.randint(5, 7))
        ty = _sparse_space(rng, rng.randint(5, 7))
        # few image points make preimages coarse, so verdicts vary
        targets = rng.sample(range(ty.n), 1 + j % 3)
        f = SpaceMap(tx, ty, [rng.choice(targets) for _ in range(tx.n)])
        doc = encode_map(f)
        path = tmp_path / f"map{j}.json"
        path.write_text(json.dumps(doc))
        assert main(["classify-map", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        expected = []
        for cc in ContinuityClass:
            holds = is_continuous_in(f, cc)
            seen[cc].add(holds)
            expected.append(f"  {cc.value}: {'yes' if holds else 'no'}")
        assert lines[1:] == expected
    assert all(len(verdicts) == 2 for verdicts in seen.values())


def test_closed_stdout_exits_141_without_traceback():
    # about 1 MB of documents overfills the pipe, so the writer is still
    # writing when the reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "fintopo.cli", "enumerate", "--n", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert json.loads(proc.stdout.readline())["points"] == list("abcde")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""
