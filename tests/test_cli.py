import json

import pytest

import mdlbackbone
from mdlbackbone.baselines import high_salience_skeleton, percolation_backbone
from mdlbackbone.cli import METHODS, main
from mdlbackbone.graph import parse_edge_list, serialize_edge_list
from mdlbackbone.objectives import ObjectiveSpec
from mdlbackbone.solver import greedy_global

STAR = "a\tb\t5\na\tc\t1\na\td\t1\na\te\t1\n"
TRIANGLE = "a\tb\t3\nb\tc\t3\na\tc\t1\n"
EQUAL = "a\tb\t2\na\tc\t2\nb\tc\t2\nc\td\t2\n"
# mdl-local under canonical-poisson keeps 2 edges at --lam 2 and 3 at 1
MIXED = "".join(f"{a}\t{b}\t{w}\n" for a, b, w in [
    ("a", "b", 10), ("e", "a", 24), ("b", "f", 4), ("f", "d", 9),
    ("f", "b", 15), ("d", "a", 12), ("e", "f", 2), ("a", "f", 21),
    ("b", "a", 30), ("d", "f", 1),
])
# read undirected, "a b 3" and "b a 2" are two parallel edges
RECIPROCAL = "a\tb\t3\nb\ta\t2\nb\tc\t1\nc\td\t1\n"


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.tsv"
    path.write_text(STAR)
    return path


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestBackboneCommand:
    def test_mdl_global(self, star_file, tmp_path):
        out = tmp_path / "out"
        code = main([
            "backbone", "--method", "mdl-global", "--objective", "micro",
            str(star_file), "--output", str(out),
        ])
        assert code == 0
        doc = read_json(f"{out}.json")
        assert doc["E_b"] == 1
        assert doc["dl_bits"] == pytest.approx(6.6439, abs=1e-4)
        assert 0 < doc["eta"] <= 1
        assert doc["trace"] == {"length": 5, "argmin": 1,
                                "min_bits": doc["dl_bits"], "tie_count": 1}
        assert "edges" not in doc
        lines = (tmp_path / "out.tsv").read_text().splitlines()
        assert lines == ["a\tb\t5"]

    def test_mdl_local_undirected_geometric(self, tmp_path):
        path = tmp_path / "tri.tsv"
        path.write_text(TRIANGLE)
        out = tmp_path / "tri-local"
        code = main([
            "backbone", "--method", "mdl-local",
            "--objective", "canonical-geometric", "--undirected",
            str(path), "--output", str(out),
        ])
        assert code == 0
        doc = read_json(f"{out}.json")
        assert doc["E_b"] <= 3
        assert doc["directed"] is False

    def test_disparity_alpha(self, star_file, tmp_path):
        out = tmp_path / "disp"
        code = main([
            "backbone", "--method", "disparity-alpha", "--alpha", "0.05",
            str(star_file), "--output", str(out),
        ])
        assert code == 0
        doc = read_json(f"{out}.json")
        assert doc["alpha"] == 0.05

    def test_missing_file_exit_1(self, tmp_path, capsys):
        code = main([
            "backbone", "--method", "mdl-global",
            str(tmp_path / "nope.tsv"),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.tsv"
        path.write_text("a b\n")
        code = main(["backbone", "--method", "mdl-global", str(path)])
        assert code == 1

    def test_total_beyond_int64_exit_1(self, tmp_path, capsys):
        path = tmp_path / "big.tsv"
        path.write_text("a b 4611686018427387904\na c 4611686018427387904\na a 2\n")
        code = main(["backbone", "--method", "mdl-global", str(path),
                     "--output", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "mdlbackbone: error: integer weight mode requires whole weights >= 1 "
            "and below 2**53")

    def test_round_weights_with_real_weights_exit_1(self, tmp_path, capsys):
        # canonical-exponential reads real weights, which are never rounded
        path = tmp_path / "half.tsv"
        path.write_text("a b 1.5\n")
        out = tmp_path / "out"
        code = main(["backbone", "--method", "mdl-global",
                     "--objective", "canonical-exponential", "--round-weights",
                     str(path), "--output", str(out)])
        assert code == 1
        assert "rounding weights requires integer weight mode" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_nonpositive_empty_dl_exit_1(self, tmp_path, capsys):
        path = tmp_path / "small.tsv"
        path.write_text("".join(f"a\t{v}\t0.125\n" for v in "bcdef"))
        code = main(["backbone", "--method", "mdl-global",
                     "--objective", "canonical-exponential", str(path),
                     "--output", str(tmp_path / "out")])
        assert code == 1
        assert "eta is undefined" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--method", "mdl-global"],
        ["--method", "mdl-local", "--objective", "canonical-poisson",
         "--lam", "2"],
        ["--method", "disparity-tope", "--etarget", "4", "--undirected"],
    ])
    def test_json_reruns_command(self, tmp_path, argv):
        path = tmp_path / "mixed.tsv"
        path.write_text(MIXED)
        first = tmp_path / "first"
        assert main(["backbone", str(path), *argv, "--output", str(first)]) == 0
        doc = read_json(f"{first}.json")
        assert doc["version"] == mdlbackbone.__version__

        again = tmp_path / "again"
        rerun = ["backbone", doc["input"], "--method", doc["method"],
                 "--seed", str(doc["seed"]), "--lam", repr(doc["lam"]),
                 "--output", str(again)]
        if "objective" in doc:  # "<objective>-<scope>"
            rerun += ["--objective", doc["objective"].rsplit("-", 1)[0]]
        elif doc["weight_kind"] == "real":
            rerun += ["--objective", "canonical-exponential"]
        if doc["etarget"] is not None:
            rerun += ["--etarget", str(doc["etarget"])]
        if "alpha" in doc:
            rerun += ["--alpha", repr(doc["alpha"])]
        if not doc["directed"]:
            rerun.append("--undirected")
        if doc["round_weights"]:
            rerun.append("--round-weights")
        assert main(rerun) == 0
        tsv = (tmp_path / "first.tsv").read_bytes()
        assert tsv and (tmp_path / "again.tsv").read_bytes() == tsv
        assert read_json(f"{again}.json") == dict(doc, input=str(path))

        # compare and percolation on that backbone re-run from their JSONs
        cmp = ["compare", str(path), "--backbones", str(tmp_path / "first.tsv"),
               "--seed", "3", "--output", str(tmp_path / "cmp")]
        assert main(cmp + ([] if doc["directed"] else ["--undirected"])) == 0
        cdoc = read_json(tmp_path / "cmp.json")
        assert cdoc["version"] == mdlbackbone.__version__
        rerun = ["compare", cdoc["input"], "--seed", str(cdoc["seed"]),
                 "--backbones", *[row["backbone"] for row in cdoc["backbones"]],
                 "--output", str(tmp_path / "cmp-again")]
        if not cdoc["directed"]:
            rerun.append("--undirected")
        if cdoc["round_weights"]:
            rerun.append("--round-weights")
        assert main(rerun) == 0
        assert read_json(tmp_path / "cmp-again.json") == cdoc

        assert main(["percolation", str(path), "--pgrid", "log:0.001:0.05:4",
                     "--backbones", str(tmp_path / "first.tsv"),
                     "--output", str(tmp_path / "perc")]) == 0
        pdoc = read_json(tmp_path / "perc.json")
        assert pdoc["version"] == mdlbackbone.__version__
        rerun = ["percolation", pdoc["input"], "--pgrid", pdoc["pgrid"],
                 "--backbones", *pdoc["backbones"],
                 "--output", str(tmp_path / "perc-again")]
        if pdoc["round_weights"]:
            rerun.append("--round-weights")
        assert main(rerun) == 0

        def unmeasured(d):  # drop the wall times
            measured = ("eig_seconds", "runtime_ratio")
            return dict(d, graphs=[{k: v for k, v in g.items() if k not in measured}
                                   for g in d["graphs"]])

        assert unmeasured(read_json(tmp_path / "perc-again.json")) == unmeasured(pdoc)

    @pytest.mark.parametrize("method", ["hss", "percolation"])
    def test_baseline_tsv_is_the_library_backbone(self, tmp_path, method):
        path = tmp_path / "mixed.tsv"
        path.write_text(MIXED)
        out = tmp_path / "out"
        assert main(["backbone", str(path), "--method", method, "--undirected",
                     "--seed", "3", "--output", str(out)]) == 0
        g = parse_edge_list(MIXED, directed=False)
        if method == "hss":
            bb = high_salience_skeleton(g, seed=3)
        else:
            bb = percolation_backbone(g)
        assert bb.num_edges
        assert (tmp_path / "out.tsv").read_text() == serialize_edge_list(bb.subgraph())

    def test_disparity_tope_without_etarget_exit_1(self, star_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["backbone", str(star_file), "--method", "disparity-tope",
                     "--output", str(out)])
        assert code == 1
        assert "disparity-tope requires --etarget" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_real_weights_round_trip(self, tmp_path):
        # repr of each float is read back as the same float
        weights = [1 / 3, 0.1, 1e-7, 123456.789, 2.5, 7.000000000000001]
        path = tmp_path / "real.tsv"
        path.write_text("".join(f"a\t{c}\t{w!r}\n" for c, w in zip("bcdefg", weights)))
        out = tmp_path / "out"
        assert main(["backbone", str(path), "--method", "mdl-global",
                     "--objective", "canonical-exponential", "--output", str(out)]) == 0
        with open(path) as fh:
            g = parse_edge_list(fh, directed=True, weight_kind="real")
        bb = greedy_global(g, ObjectiveSpec("global", "canonical", "exponential")).backbone
        assert bb.num_edges
        with open(tmp_path / "out.tsv") as fh:
            back = parse_edge_list(fh, directed=True, weight_kind="real")
        assert back.weights.tobytes() == g.weights[bb.member_flags].tobytes()
        assert [back.labels[i] for i in back.dst] == [
            g.labels[i] for i in g.dst[bb.member_flags]]

    def test_default_output_prefix(self, star_file, tmp_path, monkeypatch):
        # without --output every command writes into the working directory
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        assert main(["backbone", str(star_file), "--method", "mdl-global"]) == 0
        assert main(["compare", str(star_file), "--backbones",
                     "star.mdl-global.tsv"]) == 0
        assert main(["percolation", str(star_file), "--pgrid", "lin:0.5:0.9:3"]) == 0
        assert main(["synth", "regular", "--N", "4", "--k", "2"]) == 0
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "star.compare.json", "star.mdl-global.json", "star.mdl-global.tsv",
            "star.percolation.json", "synth-regular.params.json", "synth-regular.tsv",
        ]

    def test_bad_method_exit_2(self, star_file):
        with pytest.raises(SystemExit) as exc:
            main(["backbone", "--method", "bogus", str(star_file)])
        assert exc.value.code == 2


class TestCompareCommand:
    def test_metrics_and_jaccard(self, star_file, tmp_path):
        bb1 = tmp_path / "bb1.tsv"
        bb1.write_text("a\tb\t5\n")
        bb2 = tmp_path / "bb2.tsv"
        bb2.write_text("a\tb\t5\na\tc\t1\n")
        out = tmp_path / "cmp"
        code = main([
            "compare", str(star_file), "--backbones", str(bb1), str(bb2),
            "--output", str(out),
        ])
        assert code == 0
        doc = read_json(f"{out}.json")
        assert len(doc["backbones"]) == 2
        assert doc["backbones"][0]["edge_fraction"] == pytest.approx(0.25)
        assert doc["jaccard_matrix"][0][1] == pytest.approx(0.5)

    def test_empty_backbone(self, tmp_path):
        path = tmp_path / "equal.tsv"
        path.write_text(EQUAL)
        out = tmp_path / "bb"
        assert main(["backbone", "--method", "mdl-global", str(path),
                     "--undirected", "--output", str(out)]) == 0
        assert read_json(f"{out}.json")["E_b"] == 0
        assert (tmp_path / "bb.tsv").read_text() == ""

        cmp = tmp_path / "cmp"
        assert main(["compare", str(path), "--undirected", "--backbones",
                     str(tmp_path / "bb.tsv"), "--output", str(cmp)]) == 0
        row = read_json(f"{cmp}.json")["backbones"][0]
        assert (row["E_b"], row["W_b"], row["edge_fraction"]) == (0, 0, 0.0)

        perc = tmp_path / "perc"
        assert main(["percolation", str(path), "--pgrid", "lin:0.5:0.9:3",
                     "--backbones", str(tmp_path / "bb.tsv"),
                     "--output", str(perc)]) == 0
        backbone = read_json(f"{perc}.json")["graphs"][1]
        assert backbone["S"] == [0.0, 0.0, 0.0]
        assert backbone["p_crit"] is None

    def test_foreign_edge_exit_1(self, star_file, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("x\ty\t1\n")
        code = main([
            "compare", str(star_file), "--backbones", str(bad),
            "--output", str(tmp_path / "c"),
        ])
        assert code == 1


class TestBackboneFilesRoundTrip:
    """``compare`` reads every backbone file back as the backbone that
    ``backbone`` wrote: the same edge count and weight as its JSON, also
    where the graph lists both orientations of a pair."""

    @pytest.mark.parametrize("text", [MIXED, RECIPROCAL], ids=["mixed", "reciprocal"])
    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("method", METHODS)
    def test_compare_matches_backbone_json(self, tmp_path, method, directed, text):
        path = tmp_path / "graph.tsv"
        path.write_text(text)
        way = [] if directed else ["--undirected"]
        extra = ["--etarget", "4"] if method == "disparity-tope" else []
        out = tmp_path / "bb"
        assert main(["backbone", str(path), "--method", method, "--output", str(out),
                     *way, *extra]) == 0
        doc = read_json(f"{out}.json")
        assert main(["compare", str(path), "--backbones", f"{out}.tsv",
                     "--output", str(tmp_path / "cmp"), *way]) == 0
        row = read_json(tmp_path / "cmp.json")["backbones"][0]
        assert (row["E_b"], row["W_b"]) == (doc["E_b"], doc["W_b"])

    def test_stored_orientation_of_a_reciprocal_pair(self, tmp_path):
        path = tmp_path / "reciprocal.tsv"
        path.write_text(RECIPROCAL)
        out = tmp_path / "bb"
        assert main(["backbone", str(path), "--method", "mdl-global", "--undirected",
                     "--output", str(out)]) == 0
        assert (tmp_path / "bb.tsv").read_text() == "a\tb\t3\n"
        assert main(["compare", str(path), "--backbones", f"{out}.tsv", "--undirected",
                     "--output", str(tmp_path / "cmp")]) == 0
        row = read_json(tmp_path / "cmp.json")["backbones"][0]
        assert (row["E_b"], row["W_b"]) == (1, 3)

    def test_unparsable_backbone_file_exit_1(self, star_file, tmp_path, capsys):
        # a file with edge lines that does not parse is an error, not the
        # empty backbone
        bad = tmp_path / "bad.tsv"
        bad.write_text("a\tb\t0\n")
        code = main(["compare", str(star_file), "--backbones", str(bad),
                     "--output", str(tmp_path / "c")])
        assert code == 1
        assert "weight must be positive" in capsys.readouterr().err


class TestSynthCommand:
    def test_regular(self, tmp_path):
        out = tmp_path / "reg"
        code = main([
            "synth", "regular", "--N", "4", "--k", "2",
            "--seed", "3", "--output", str(out),
        ])
        assert code == 0
        params = read_json(f"{out}.params.json")
        assert params["N"] == 4
        assert len((tmp_path / "reg.tsv").read_text().splitlines()) == 8

    def test_planted_writes_backbone(self, tmp_path):
        out = tmp_path / "pl"
        code = main([
            "synth", "planted", "--N", "30", "--k", "5", "--gamma", "1e-3",
            "--scope", "global", "--seed", "7", "--output", str(out),
        ])
        assert code == 0
        assert (tmp_path / "pl.params.json").exists()
        assert (tmp_path / "pl.tsv").exists()

    def test_dm(self, tmp_path):
        out = tmp_path / "dm"
        code = main([
            "synth", "dm", "--N", "20", "--k", "5", "--W", "1000",
            "--hstr", "0.1", "--hneig", "0.1", "--output", str(out),
        ])
        assert code == 0
        lines = (tmp_path / "dm.tsv").read_text().splitlines()
        total = sum(int(line.split("\t")[2]) for line in lines)
        assert total == 1000


class TestPercolationCommand:
    def test_study(self, tmp_path):
        path = tmp_path / "k4.tsv"
        path.write_text(
            "a\tb\t1\na\tc\t1\na\td\t1\nb\tc\t1\nb\td\t1\nc\td\t1\n"
        )
        bb = tmp_path / "bb.tsv"
        bb.write_text("a\tb\t1\na\tc\t1\na\td\t1\nb\tc\t1\nb\td\t1\n")
        out = tmp_path / "perc"
        code = main([
            "percolation", str(path), "--pgrid", "lin:0.5:0.9:3",
            "--backbones", str(bb), "--output", str(out),
        ])
        assert code == 0
        doc = read_json(f"{out}.json")
        assert doc["graphs"][0]["label"] == "full"
        assert doc["graphs"][0]["p_crit"] == pytest.approx(0.5, abs=1e-6)
        assert len(doc["p_grid"]) == 3

    def test_bad_grid_exit_1(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("a\tb\t1\n")
        code = main(["percolation", str(path), "--pgrid", "log:0:1:5"])
        assert code == 1

    @pytest.mark.parametrize("grid, message", [
        ("log:1e-3:1", "use log:a:b:n or lin:a:b:n"),
        ("cube:0:1:5", "use log:a:b:n or lin:a:b:n"),
        ("lin:a:1:5", "bad p-grid spec 'lin:a:1:5'"),
        ("lin:0:1:2.5", "bad p-grid spec 'lin:0:1:2.5'"),
    ])
    def test_malformed_grid_exit_1(self, tmp_path, capsys, grid, message):
        path = tmp_path / "g.tsv"
        path.write_text("a\tb\t1\n")
        code = main(["percolation", str(path), "--pgrid", grid,
                     "--output", str(tmp_path / "perc")])
        assert code == 1
        assert message in capsys.readouterr().err
