"""CLI harness: corpus loading, shuffling, and the four subcommands."""

import itertools
import json

import pytest

from conftest import random_words
from dynpdt import Config, Dictionary, nonstep_path_nodes, probe_stats
from dynpdt.cli import load_corpus, main, shuffle_keys


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "words.txt"
    path.write_bytes(b"\n".join(random_words(200, seed=6)) + b"\n")
    return path


def test_load_corpus_counts(tmp_path):
    path = tmp_path / "messy.txt"
    path.write_bytes(b"alpha\r\nbeta\n\nal\x00pha\nbeta\nalpha\n\n")
    keys, counts = load_corpus(path)
    assert keys == [b"alpha", b"beta", b"beta", b"alpha"]
    assert counts == {"lines_blank": 2, "lines_invalid": 1, "lines_duplicate": 0}

    keys, counts = load_corpus(path, dedupe=True)
    assert keys == [b"alpha", b"beta"]
    assert counts["lines_duplicate"] == 2

    # the newline that ends the last line does not start a blank one
    path.write_bytes(b"alpha\nbeta\n")
    keys, counts = load_corpus(path)
    assert keys == [b"alpha", b"beta"] and counts["lines_blank"] == 0


def test_shuffle_is_seeded_permutation():
    base = random_words(100, seed=0)
    a, b = list(base), list(base)
    shuffle_keys(a, 42)
    shuffle_keys(b, 42)
    assert a == b
    assert a != base
    assert sorted(a) == base

    c = list(base)
    shuffle_keys(c, 43)
    assert c != a


def test_shuffle_order_is_pinned():
    # random.Random's seeded shuffle; CI checks it on every supported Python
    keys = [b"k%d" % i for i in range(10)]
    shuffle_keys(keys, 7)
    assert keys == [b"k8", b"k3", b"k1", b"k4", b"k7", b"k0", b"k9", b"k6", b"k2", b"k5"]


def test_shuffle_reaches_every_order():
    # all 6 arrangements of three keys show up across seeds
    seen = set()
    for seed in range(60):
        keys = [b"a", b"b", b"c"]
        shuffle_keys(keys, seed)
        seen.add(tuple(keys))
    assert seen == set(itertools.permutations([b"a", b"b", b"c"]))


def run(capsys, *argv):
    rc = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return rc, out


def test_build_verifies_corpus(corpus, capsys):
    rc, out = run(capsys, "build", corpus, "--capacity", 64, "--seed", 3)
    assert rc == 0
    rep = json.loads(out)
    assert rep["command"] == "build"
    assert rep["n_keys"] == 200
    assert rep["n_unique"] == 200
    assert rep["verify_failures"] == 0
    assert rep["node_count"] >= 200
    assert rep["growth_events"] >= 2
    assert rep["memory_bytes"] > 0


@pytest.mark.parametrize("command", ["build", "stats"])
def test_reports_growth_time(corpus, capsys, command):
    rc, out = run(capsys, command, corpus, "--capacity", 16)
    rep = json.loads(out)
    assert rc == 0 and rep["growth_events"] >= 4
    # the doublings are part of the build the report times
    assert 0 < rep["growth_ms"] <= rep["build_ns_per_key"] * rep["n_keys"] / 1e6
    rc, out = run(capsys, command, corpus, "--capacity", 1024)
    rep = json.loads(out)
    assert (rep["growth_events"], rep["growth_ms"]) == (0, 0)


def test_build_defaults_are_config_defaults(corpus, capsys):
    rc, out = run(capsys, "build", corpus)
    assert rc == 0
    rep = json.loads(out)
    default = Config()
    assert (rep["repr"], rep["nlm"], rep["offset_limit"], rep["group_size"],
            rep["initial_capacity"]) == (default.trie_repr, default.label_map,
                                         default.offset_limit, default.group_size,
                                         default.initial_capacity)


def test_build_all_backend_flags(corpus, capsys):
    for repr_ in ("pbt", "cbt", "pfkt", "cfkt"):
        for nlm in ("plm", "slm"):
            rc, out = run(capsys, "build", corpus, "--repr", repr_, "--nlm", nlm,
                          "--capacity", 256, "--ell", 8)
            assert rc == 0
            rep = json.loads(out)
            assert (rep["repr"], rep["nlm"]) == (repr_, nlm)
            assert rep["verify_failures"] == 0


def test_bench_hits_and_misses(corpus, capsys):
    rc, out = run(capsys, "bench", corpus, "--capacity", 256,
                  "--queries", 50, "--repeats", 1)
    assert rc == 0
    rep = json.loads(out)
    assert rep["queries"] == 50
    assert rep["hit_rate"] == 1.0
    assert rep["miss_hit_rate"] == 0.0
    assert rep["hit_ns_per_op"] > 0
    assert rep["miss_ns_per_op"] > 0


@pytest.mark.parametrize("wrong", [lambda self, key: None, lambda self, key: 7],
                         ids=["hits-lost", "misses-found"])
def test_bench_fails_on_wrong_lookups(corpus, capsys, monkeypatch, wrong):
    # a corpus of lowercase words leaves unused bytes, so no constructed
    # miss can be stored and each must come back absent
    monkeypatch.setattr(Dictionary, "lookup", wrong)
    rc, out = run(capsys, "bench", corpus, "--capacity", 256,
                  "--queries", 20, "--repeats", 1)
    assert rc == 1
    assert json.loads(out)["queries"] == 20


def test_stats_reports_shape(corpus, capsys):
    rc, out = run(capsys, "stats", corpus, "--capacity", 256, "--lambda", 8)
    assert rc == 0
    rep = json.loads(out)
    assert rep["node_count"] == rep["step_count"] + rep["nonstep_count"]
    assert 0 <= rep["steps_pct"] < 1
    assert rep["ave_height"] > 0
    assert rep["ave_nll"] > 1
    # the trie's shape depends on the insertion order, the corpus's here
    words, _ = load_corpus(corpus)
    d = Dictionary(Config(offset_limit=8))
    for i, w in enumerate(words):
        d.insert(w, i)
    paths = [nonstep_path_nodes(d, w) for w in words]
    assert rep["labels_per_hit"] == round(sum(paths) / len(paths), 4)
    assert 0 < rep["first_byte_pct"] <= 100
    # the probe census of the table the command built, from 256 slots
    d = Dictionary(Config(offset_limit=8, initial_capacity=256))
    for i, w in enumerate(words):
        d.insert(w, i)
    ps = probe_stats(d)
    assert rep["max_cluster"] == ps.max_cluster >= 1
    assert rep["miss_probes_mean"] == round(ps.miss_probes_mean, 4) > 1
    assert rep["hit_probes_mean"] == round(ps.hit_probes_mean, 4) >= 1


def test_bounds_brackets_stats(corpus, capsys):
    rc, out = run(capsys, "bounds", corpus)
    assert rc == 0
    bounds = json.loads(out)
    assert bounds["height_sum_min"] <= bounds["height_sum_max"]
    assert bounds["ave_height_min"] == round(bounds["height_sum_min"] / bounds["n_keys"], 4)

    rc, out = run(capsys, "stats", corpus, "--capacity", 256)
    stats = json.loads(out)
    assert bounds["ave_height_min"] <= stats["ave_height"] <= bounds["ave_height_max"] + 1e-4


def test_tsv_format(corpus, capsys):
    rc, out = run(capsys, "build", corpus, "--capacity", 256, "--format", "tsv")
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln]
    fields = dict(ln.split("\t", 1) for ln in lines)
    assert fields["verify_failures"] == "0"
    assert [ln.split("\t", 1)[0] for ln in lines] == sorted(fields)


def test_duplicate_lines_without_dedupe_still_verify(tmp_path, capsys):
    path = tmp_path / "dups.txt"
    path.write_bytes(b"one\ntwo\none\nthree\n")
    rc, out = run(capsys, "build", path, "--capacity", 256)
    assert rc == 0
    rep = json.loads(out)
    # first occurrence wins; the repeat neither inserts nor clobbers
    assert rep["n_keys"] == 4
    assert rep["n_unique"] == 3
    assert rep["verify_failures"] == 0


def test_missing_corpus_fails(capsys):
    rc = main(["build", "/no/such/file.txt"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error:" in err


def test_empty_corpus_fails(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_bytes(b"\n\n")
    rc = main(["stats", str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "no usable lines" in err


def test_bad_capacity_fails_cleanly(corpus, capsys):
    rc = main(["build", str(corpus), "--capacity", "100"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error:" in err


def test_bad_arguments_exit_two(corpus):
    with pytest.raises(SystemExit) as exc:
        main(["build", str(corpus), "--repr", "nosuch"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("option", ["--queries", "--repeats"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_bench_counts_must_be_positive(corpus, option, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", str(corpus), option, value])
    assert exc.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err
