"""Exit codes, report formats, and determinism of the command-line surface."""

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import soclecoh
from helpers import TWISTED_CLASS2, c2_wreath_c4_spec, mixer32, twisted_class2_spec
from soclecoh import obstruction
from soclecoh.cli import main
from soclecoh.cohomology import CochainComplex, CoeffAction, Cochain, ConnectingCochain, differential
from soclecoh.errors import GammaNotInSocleLevel, WrongLevel
from soclecoh.fingroup import catalog, make_extension
from soclecoh.zmodlin import RingConfig

R2 = RingConfig(2, 1)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_socle_quaternion(capsys):
    code, out, _ = run(
        capsys, "socle", "--catalog", "quaternion8", "--ell", "2", "--n", "1"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["d"] == 2
    assert rep["j_orders"] == [2]
    assert rep["stabilization"] == 1


def test_socle_cyclic_trivial_j(capsys):
    code, out, _ = run(
        capsys, "socle", "--catalog", "cyclic", "--params", "k=1", "--ell", "2", "--n", "1"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["j_orders"] == []


def test_verify_exhaustive_quaternion(capsys):
    code, out, _ = run(
        capsys, "verify", "--catalog", "quaternion8", "--ell", "2", "--n", "1",
        "--m", "2", "--exhaustive",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["hypothesis"]["holds"]
    assert rep["direction1"]["passed"] and rep["direction2"]["passed"]
    assert rep["direction2"]["zero_class_count"] == 1


def test_verify_determinism(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code = main(
            ["verify", "--catalog", "quaternion8", "--ell", "2", "--n", "1",
             "--m", "2", "--exhaustive", "--out", str(p)]
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_hypothesis_d8(capsys):
    code, out, _ = run(
        capsys, "hypothesis", "--catalog", "dihedral8", "--ell", "2", "--n", "1"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["holds"] is False
    assert rep["h2_total_dim"] == 3
    assert rep["inflated_dim"] == 2


def test_obstruction_enumerate_routes_all(capsys):
    code, out, _ = run(
        capsys, "obstruction", "--catalog", "quaternion8", "--ell", "2", "--n", "1",
        "--m", "2", "--enumerate", "--routes", "all",
    )
    assert code == 0
    rep = json.loads(out)
    assert len(rep["records"]) == 4
    assert rep["zero_class_count"] == 1
    for rec in rep["records"]:
        assert rec["routes"]["generic_vs_closed_entrywise"] is True
        assert rec["routes"]["generic_vs_m2_cohomologous"] is True


def test_obstruction_dump_cochains(capsys):
    code, out, _ = run(
        capsys, "obstruction", "--catalog", "quaternion8", "--ell", "2", "--n", "1",
        "--m", "2", "--enumerate", "--dump-cochains",
    )
    assert code == 0
    # the report of the bar-solve route, before the H^3 decision moved to P
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "78e4819e12236183e95d8ab27996edb039f0b849f80203adc2d0af08e4b9527d"
    )
    rep = json.loads(out)
    action = CoeffAction.trivial(make_extension(catalog("quaternion8"), R2).quotient, R2)

    def cochain(dump):
        values = {tuple(t): tuple(v) for t, v in dump["entries"]}
        return Cochain.make(action, dump["degree"], values)

    for rec in rep["records"]:
        assert rec["psi"]["degree"] == 3
        if rec["zero_class"]:
            assert "witness" in rec
            assert differential(cochain(rec["witness"])).same_values(cochain(rec["psi"]))
        else:
            assert "witness" not in rec


@pytest.mark.parametrize("group, m", [
    (["--catalog", "quaternion8", "--ell", "2", "--n", "1"], "2"),
    (["--catalog", "quaternion8", "--ell", "2", "--n", "1"], "3"),
    (["--catalog", "unitriangular3", "--params", "n=2", "--ell", "2", "--n", "2"], "2"),
])
def test_psi_hash_is_the_sha256_of_the_dumped_psi(capsys, group, m):
    # psi_hash is hashed from the factored Psi one g1 at a time; end to end it
    # is the sha256 of the record's psi as compact sorted JSON
    code, out, _ = run(capsys, "obstruction", *group, "--m", m, "--enumerate", "--dump-cochains")
    assert code == 0
    records = json.loads(out)["records"]
    assert any(rec["psi"]["entries"] for rec in records)
    for rec in records:
        blob = json.dumps(rec["psi"], sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == rec["psi_hash"], rec["phi"]


def test_obstruction_and_verify_build_no_bar_solver(capsys, monkeypatch):
    # the H^3 decision needs no bar matrix: only a --dump-cochains witness does
    calls = []
    build = CochainComplex.solver

    def counted(self, k):
        calls.append(k)
        return build(self, k)

    monkeypatch.setattr(CochainComplex, "solver", counted)
    u3 = ["--catalog", "unitriangular3", "--params", "n=2", "--ell", "2", "--n", "2"]
    for argv in (
        ["obstruction", *u3, "--m", "2", "--routes", "all", "--random", "4", "--seed", "1"],
        ["obstruction", *u3, "--m", "3", "--random", "4", "--seed", "1"],
        ["obstruction", "--catalog", "quaternion8", "--ell", "2", "--n", "1", "--m", "2",
         "--enumerate", "--routes", "all"],
        ["verify", "--catalog", "quaternion8", "--ell", "2", "--n", "1", "--m", "2",
         "--exhaustive"],
        ["verify", *u3, "--m", "2", "--samples", "3", "--seed", "1", "--max-order", "64"],
    ):
        code, _, _ = run(capsys, *argv)
        assert code == 0, argv
    assert calls == []
    code, _, _ = run(
        capsys, "obstruction", "--catalog", "quaternion8", "--ell", "2", "--n", "1",
        "--m", "2", "--enumerate", "--dump-cochains",
    )
    assert code == 0
    assert calls and set(calls) == {2}


def test_routes_build_closed_and_m2_once_per_hom_row(capsys, monkeypatch):
    # psi_stream's routed command: routes B and C run on the Howell rows of
    # Hom_G(I_2, J), not on each of the 40 phis
    calls = {"psi_closed_form": 0, "psi_m2_formula": 0}
    for name in calls:
        route = getattr(obstruction.ObstructionContext, name)

        def counted(self, phi, name=name, route=route):
            calls[name] += 1
            return route(self, phi)

        monkeypatch.setattr(obstruction.ObstructionContext, name, counted)
    code, out, _ = run(
        capsys, "obstruction", "--catalog", "unitriangular3", "--params", "n=2", "--ell", "2",
        "--n", "2", "--m", "2", "--routes", "all", "--random", "40", "--seed", "1",
    )
    assert code == 0
    assert len(json.loads(out)["records"]) == 40
    ext = make_extension(catalog("unitriangular3", {"ell": 2, "n": 2}), RingConfig(2, 2))
    _, basis = obstruction.ObstructionContext(ext).hom_phi_basis(2)
    assert len(basis.rows) == 2
    assert calls == {"psi_closed_form": 2, "psi_m2_formula": 2}


def test_psi_is_materialized_once_per_hom_row_and_only_for_routes(capsys, monkeypatch):
    # the per-phi path hashes and decides the factored Psi; only the route
    # certificate builds Psi as a Cochain, once for each Hom_G(I_2, J) row
    calls = []
    build = ConnectingCochain.materialize

    def counted(self):
        calls.append(self.degree)
        return build(self)

    monkeypatch.setattr(ConnectingCochain, "materialize", counted)
    u3 = ["--catalog", "unitriangular3", "--params", "n=2", "--ell", "2", "--n", "2"]
    for argv, want in (
        (["obstruction", *u3, "--m", "3", "--routes", "generic", "--random", "20", "--seed", "1"], 0),
        (["obstruction", *u3, "--m", "2", "--routes", "all", "--random", "40", "--seed", "1"], 2),
        (["verify", "--catalog", "quaternion8", "--ell", "2", "--n", "1", "--m", "2",
          "--exhaustive"], 0),
        (["verify", *u3, "--m", "2", "--samples", "3", "--seed", "1", "--max-order", "64"], 0),
    ):
        calls.clear()
        code, _, _ = run(capsys, *argv)
        assert code == 0, argv
        assert calls == [3] * want, argv


def test_exit_2_on_bad_catalog(capsys):
    code, _, err = run(capsys, "socle", "--catalog", "nope", "--ell", "2", "--n", "1")
    assert code == 2
    assert "input error" in err


def test_exit_2_on_malformed_group_file(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, err = run(
        capsys, "socle", "--group-file", str(p), "--ell", "2", "--n", "1"
    )
    assert code == 2


def test_exit_2_on_bad_m(capsys):
    code, _, _ = run(
        capsys, "obstruction", "--catalog", "quaternion8", "--ell", "2", "--n", "1",
        "--m", "1", "--enumerate",
    )
    assert code == 2


def test_exit_3_on_nonfree_quotient(capsys):
    code, _, err = run(
        capsys, "socle", "--catalog", "abelian_product",
        "--params", 'exponents=[1,2]', "--ell", "2", "--n", "2",
    )
    assert code == 3
    assert "standing assumption" in err


def wreath_group_file(tmp_path):
    p = tmp_path / "c2wrc4.json"
    p.write_text(json.dumps(c2_wreath_c4_spec()))
    return p


@pytest.mark.parametrize("command", [
    ["socle"],
    ["obstruction", "--m", "2"],
    ["verify", "--m", "2", "--exhaustive", "--max-order", "64"],
])
def test_exit_3_on_nonabelian_kernel(capsys, tmp_path, command):
    # C_2 wr C_4 at l^n = 2 has a nonabelian descending step H: a standing
    # assumption fails, the input is not malformed
    gf = wreath_group_file(tmp_path)
    code, out, err = run(
        capsys, command[0], "--group-file", str(gf), "--ell", "2", "--n", "1", *command[1:]
    )
    assert code == 3 and out == ""
    assert "standing assumption failed" in err and "not abelian" in err
    assert "Traceback" not in err


def test_hypothesis_on_a_nonabelian_kernel(capsys, tmp_path):
    # the H^2 check reads the extension only, so a nonabelian H is no obstacle
    gf = wreath_group_file(tmp_path)
    code, out, _ = run(
        capsys, "hypothesis", "--group-file", str(gf), "--ell", "2", "--n", "1",
        "--max-order", "64",
    )
    assert code == 0
    rep = json.loads(out)
    assert (rep["holds"], rep["h2_total_dim"], rep["inflated_dim"]) == (False, 4, 1)


_QUATERNION8 = ["--catalog", "quaternion8", "--ell", "2", "--n", "1"]


@pytest.mark.parametrize("argv, built", [
    (["socle", *_QUATERNION8], 0),
    (["hypothesis", *_QUATERNION8], 0),
    (["obstruction", *_QUATERNION8, "--m", "2", "--routes", "all"], 1),
    (["verify", *_QUATERNION8, "--m", "2", "--exhaustive"], 1),
])
def test_only_obstruction_and_verify_build_a_context(monkeypatch, capsys, argv, built):
    # bench/child.py reads setup as done when ObstructionContext.__init__
    # returns, so the commands it times must build exactly one
    calls = []
    init = obstruction.ObstructionContext.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(obstruction.ObstructionContext, "__init__", counted)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == built


def test_exit_4_on_size_bound(capsys):
    code, _, err = run(
        capsys, "hypothesis", "--catalog", "unitriangular3",
        "--params", "n=2", "--ell", "2", "--n", "2",
    )
    assert code == 4
    assert "size bound" in err


def mixer_group_file(tmp_path):
    g = mixer32()
    spec = {"cayley": [list(r) for r in g.cayley], "generators": list(g.generators)}
    p = tmp_path / "mixer.json"
    p.write_text(json.dumps(spec))
    return p


def test_exit_5_on_nonequivariant_phi(capsys, tmp_path):
    gf = mixer_group_file(tmp_path)
    # find a non-equivariant matrix: try all 2x3 binary matrices until one
    # is rejected by the library, then confirm the CLI maps it to exit 5
    from itertools import product as iproduct

    from soclecoh.errors import EquivarianceFailure
    from soclecoh.fingroup import make_extension
    from soclecoh.obstruction import ObstructionContext
    from soclecoh.zmodlin import RingConfig

    ctx = ObstructionContext(make_extension(mixer32(), RingConfig(2, 1)), label="mixer")
    bad = None
    for rows in iproduct(iproduct(range(2), repeat=3), repeat=2):
        try:
            ctx.phi_from_matrix(2, rows)
        except EquivarianceFailure:
            bad = rows
            break
    assert bad is not None
    pf = tmp_path / "phi.json"
    pf.write_text(json.dumps({"m": 2, "matrix": [list(r) for r in bad]}))
    code, _, err = run(
        capsys, "obstruction", "--group-file", str(gf), "--ell", "2", "--n", "1",
        "--m", "2", "--phi-file", str(pf),
    )
    assert code == 5
    assert "phi validation failed" in err


def run_process(*argv):
    """The CLI as a process, so a traceback would show on its real stderr;
    returns the finished process and its wall time."""
    src = os.path.dirname(os.path.dirname(soclecoh.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "soclecoh.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return proc, time.monotonic() - start


def test_exit_5_on_misshapen_phi(tmp_path):
    pf = tmp_path / "phi.json"
    pf.write_text(json.dumps({"m": 2, "matrix": [[1, 2, 3]]}))
    proc, _ = run_process(
        "obstruction", "--catalog", "quaternion8", "--ell", "2", "--n", "1", "--m", "2",
        "--phi-file", str(pf),
    )
    assert proc.returncode == 5
    assert "phi matrix must be" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_levels_past_the_nilpotency_index_reuse_the_zero_power():
    # I^3 = 0 in F_2[G] for quaternion8's G = (Z/2)^2, so a level far past it
    # is level 3 again: the same records, in the time of m = 3
    q8 = ("--catalog", "quaternion8", "--ell", "2", "--n", "1")
    far = "1000000000"
    records = {}
    for m in ("3", far):
        proc, wall = run_process("obstruction", *q8, "--m", m, "--random", "1", "--seed", "1")
        assert proc.returncode == 0, proc.stderr
        assert wall < 5
        records[m] = json.loads(proc.stdout)["records"]
    assert records[far] == records["3"]
    proc, wall = run_process("verify", *q8, "--m", far, "--exhaustive")
    assert proc.returncode == 0, proc.stderr
    assert wall < 5


# Catalog parameters, each with its exit code and either the report's sha256
# or the reason on stderr.  The codes are those of the per-pair builders the
# class-2 presentations replaced, except two cases those got wrong: l = 1
# hung, and elementary_abelian with d = -1 built the trivial group.  A group
# order is checked from the parameters, before any table is built.
CATALOG_PROBES = {
    "cyclic_trivial": (
        ("cyclic", "k=0"), 0,
        "925c2a2d333d47c142e36f6f31261ddf0ca17a55ee6d208482320cdb5ace4000",
    ),
    "cyclic_negative": (("cyclic", "k=-1"), 2, "cyclic parameter 'k' must be >= 0, got -1"),
    "cyclic_composite_ell": (("cyclic", "ell=4"), 2, "ell must be prime, got 4"),
    "cyclic_ell_one": (("cyclic", "ell=1"), 2, "ell must be prime, got 1"),
    "abelian_empty": (
        ("abelian_product", "exponents=[]"), 0,
        "1285e0848a4b91f29689c4291b687a230f57707674393505a65e8a2dc2b4b0eb",
    ),
    "abelian_zero": (("abelian_product", "exponents=[0]"), 2, "'exponents' needs entries >= 1, got [0]"),
    "abelian_trailing_zero": (
        ("abelian_product", "exponents=[1,0]"), 2, "'exponents' needs entries >= 1, got [1, 0]",
    ),
    "abelian_negative": (("abelian_product", "exponents=[-1]"), 2, "'exponents' needs entries >= 1, got [-1]"),
    "abelian_composite_ell": (("abelian_product", "exponents=[1],ell=4"), 2, "ell must be prime, got 4"),
    "elementary_abelian_negative": (("elementary_abelian", "d=-1"), 2, "parameter 'd' must be >= 0, got -1"),
    "unitriangular_n0": (("unitriangular3", "n=0"), 2, "n must be >= 1, got 0"),
    "heisenberg_composite_ell": (("heisenberg", "ell=4"), 2, "ell must be prime, got 4"),
    "cyclic_too_big": (("cyclic", "k=10"), 4, "group order: limit 512, got 2^10"),
    "abelian_too_big": (("abelian_product", "exponents=[5,5]"), 4, "group order: limit 512, got 2^10"),
    "elementary_abelian_too_big": (("elementary_abelian", "d=10"), 4, "group order: limit 512, got 2^10"),
    "heisenberg_too_big": (("heisenberg", "ell=11"), 4, "group order: limit 512, got 11^3"),
    "unitriangular_too_big": (("unitriangular3", "n=4"), 4, "group order: limit 512, got 2^12"),
}


@pytest.mark.parametrize("case", sorted(CATALOG_PROBES))
def test_catalog_parameter_probes(case):
    (name, params), code, expect = CATALOG_PROBES[case]
    proc, elapsed = run_process(
        "socle", "--catalog", name, "--params", params, "--ell", "2", "--n", "1"
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert elapsed < 5
    if code == 0:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == expect
    else:
        assert expect in proc.stderr


def test_exit_2_on_ell_one_with_group_file(tmp_path):
    # --ell is checked before the group is built: the l-power check on the
    # table's element orders never ends for l = 1
    gf = tmp_path / "g.json"
    gf.write_text(json.dumps({"cayley": [[0, 1], [1, 0]], "generators": [1]}))
    proc, elapsed = run_process("socle", "--group-file", str(gf), "--ell", "1", "--n", "1")
    assert proc.returncode == 2
    assert "ell must be prime, got 1" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert elapsed < 5


@pytest.mark.parametrize("command", ["socle", "obstruction"])
def test_max_order_only_where_it_is_read(command):
    # only verify and hypothesis run the H^2 check that --max-order bounds
    level = ("--m", "2", "--enumerate") if command == "obstruction" else ()
    proc, _ = run_process(
        command, "--catalog", "quaternion8", "--ell", "2", "--n", "1", *level, "--max-order", "1"
    )
    assert proc.returncode == 2
    assert "unrecognized arguments: --max-order 1" in proc.stderr
    assert "Traceback" not in proc.stderr


# Group files whose JSON types are wrong: each must exit 2 with its reason and
# no traceback (a bool is an int to Python, a float was once truncated).
JSON_TYPE_HOLES = {
    "bool_table_entry": (
        {"cayley": [[0, True], [True, 0]], "generators": [True]},
        "table entry True out of range",
    ),
    "bool_generator": (
        {"cayley": [[0, 1], [1, 0]], "generators": [True]},
        "generator index True out of range",
    ),
    "float_central_order": (
        {"class2": {"d": 1, "ell": 2, "n": 1, "powers": [[1]], "central_orders": [2.5]}},
        "central order 2.5 is not an integer",
    ),
    "bool_central_order": (
        {"class2": {"d": 1, "ell": 2, "n": 1, "powers": [[1]], "central_orders": [True]}},
        "central order True is not an integer",
    ),
    "float_class2_fields": (
        {"class2": {"d": 1.9, "ell": 2.7, "n": 1.2, "powers": [[1]], "central_orders": [2]}},
        "class2 d 1.9 is not an integer",
    ),
    "bool_power_word": (
        {"class2": {"d": 1, "ell": 2, "n": 1, "powers": [[True]], "central_orders": [2]}},
        "central word [True] has a non-integer entry",
    ),
    "labels_beside_cayley": (
        {"cayley": [[0, 1], [1, 0]], "generators": [1], "labels": 5},
        "unknown key 'labels' in a cayley group spec",
    ),
    "unknown_class2_key": (
        {"class2": {"d": 1, "ell": 2, "n": 1, "powers": [[1]], "central_orders": [2],
                    "order": 4}},
        "unknown key 'order' in the class2 spec",
    ),
    "unknown_key_beside_catalog": (
        {"catalog": "quaternion8", "params": {}, "ell": 2},
        "unknown key 'ell' in a catalog group spec",
    ),
}


@pytest.mark.parametrize("case", sorted(JSON_TYPE_HOLES))
def test_exit_2_on_json_type_holes(tmp_path, case):
    spec, reason = JSON_TYPE_HOLES[case]
    gf = tmp_path / "g.json"
    gf.write_text(json.dumps(spec))
    proc, elapsed = run_process("socle", "--group-file", str(gf), "--ell", "2", "--n", "1")
    assert proc.returncode == 2
    assert reason in proc.stderr
    assert "Traceback" not in proc.stderr
    assert elapsed < 5


# Phi files whose JSON shape or types are wrong: each exits 2 with its reason
# and no traceback, on quaternion8 at m = 2 (I_2 has rank 2, J rank 1).
PHI_JSON_HOLES = {
    "list_top_level": ([1, 2], "phi spec must be a JSON object"),
    "string_top_level": ("x", "phi spec must be a JSON object"),
    "null_top_level": (None, "phi spec must be a JSON object"),
    "bool_entries": ({"matrix": [[True], [False]]}, "phi matrix entry True is not an integer"),
    "float_entry": ({"matrix": [[1.5], [0]]}, "phi matrix entry 1.5 is not an integer"),
    "float_level": ({"m": 2.0, "matrix": [[0], [0]]}, "phi level 2.0 is not an integer"),
    "string_level": ({"m": "2", "matrix": [[0], [0]]}, "phi level '2' is not an integer"),
    "other_level": ({"m": 3, "matrix": [[0], [0]]}, "phi file is for level 3, run asked 2"),
    "unknown_key": ({"matrix": [[0], [0]], "extra": 1}, "unknown key 'extra' in the phi spec"),
    "no_matrix": ({"m": 2}, "phi matrix must be a list of lists"),
    "flat_matrix": ({"matrix": [0, 0]}, "phi matrix must be a list of lists"),
}


@pytest.mark.parametrize("case", sorted(PHI_JSON_HOLES))
def test_exit_2_on_phi_json_holes(tmp_path, case):
    spec, reason = PHI_JSON_HOLES[case]
    pf = tmp_path / "phi.json"
    pf.write_text(json.dumps(spec))
    proc, elapsed = run_process(
        "obstruction", "--catalog", "quaternion8", "--ell", "2", "--n", "1", "--m", "2",
        "--phi-file", str(pf),
    )
    assert proc.returncode == 2
    assert reason in proc.stderr
    assert "Traceback" not in proc.stderr
    assert elapsed < 5


def test_order_512_group_builds_quickly():
    # the largest order the bound admits; its table is built and validated in
    # O(n^2·|S|), where the cubic associativity scan took about 8 s
    proc, elapsed = run_process(
        "socle", "--catalog", "free_class2", "--params", "d=3", "--ell", "2", "--n", "1"
    )
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert elapsed < 5
    assert json.loads(proc.stdout)["order"] == 512


_Q8 = ("--catalog", "quaternion8", "--ell", "2", "--n", "1", "--m", "2", "--seed", "1")

# Phi counts are checked before the group is built: below 1 is an input
# error, above the Hom_G enumeration bound a size bound.
PHI_COUNTS = {
    "random_negative": (("obstruction", *_Q8, "--random", "-1"), 2, "--random needs a count >= 1"),
    "random_huge": (("obstruction", *_Q8, "--random", "100000000"), 4, "limit 4096, got 100000000"),
    "samples_zero": (("verify", *_Q8, "--samples", "0"), 2, "--samples needs a count >= 1"),
}


@pytest.mark.parametrize("case", sorted(PHI_COUNTS))
def test_phi_count_bounds(case):
    argv, code, reason = PHI_COUNTS[case]
    proc, elapsed = run_process(*argv)
    assert proc.returncode == code
    assert reason in proc.stderr
    assert "Traceback" not in proc.stderr
    assert elapsed < 5


# Flags that contradict each other are input errors, before any group is built.
FLAG_CONFLICTS = {
    "exhaustive_and_samples": (
        ("verify", *_Q8, "--exhaustive", "--samples", "3"),
        "not allowed with argument --exhaustive",
    ),
    "seed_with_enumerate": (("obstruction", *_Q8, "--enumerate"), "--seed needs --random"),
    "seed_with_phi_file": (("obstruction", *_Q8, "--phi-file", "phi.json"), "--seed needs --random"),
}


@pytest.mark.parametrize("case", sorted(FLAG_CONFLICTS))
def test_exit_2_on_flag_conflicts(case):
    argv, reason = FLAG_CONFLICTS[case]
    proc, elapsed = run_process(*argv)
    assert proc.returncode == 2
    assert reason in proc.stderr
    assert "Traceback" not in proc.stderr
    assert elapsed < 5


def test_order_512_h2_check_completes():
    # free_class2(3, 2, 1) is the free class-2 exponent-4 group on three
    # generators, so no class of H^2(G) survives inflation; h2_total_dim is
    # frozen from the first run of the relation-module route
    proc, elapsed = run_process(
        "hypothesis", "--catalog", "free_class2", "--params", "d=3", "--ell", "2", "--n", "1",
        "--max-order", "512",
    )
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert elapsed < 10
    rep = json.loads(proc.stdout)
    assert rep["order"] == 512
    assert rep["holds"] is False and rep["inflated_dim"] == 0
    assert rep["h2_total_dim"] == 14


@pytest.mark.parametrize("max_order", [("--max-order", "512"), ()])
def test_verify_enumeration_bound_trips_before_h2_check(max_order):
    # Hom_G(I_2, J) of free_class2(3, 2, 1) has 2^18 elements: the bound trips
    # before the order-512 H^2 check (about 2 s) runs, and it is the bound
    # named when the H^2 order bound (32 by default) would trip too
    proc, elapsed = run_process(
        "verify", "--catalog", "free_class2", "--params", "d=3", "--ell", "2", "--n", "1",
        "--m", "2", "--exhaustive", *max_order,
    )
    assert proc.returncode == 4
    assert "Hom_G(I_m, J) enumeration: limit 4096, got 262144" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert elapsed < 1


def test_order_256_obstruction_with_order_32_quotient():
    # |G| = 32: the bar H^3 solve and the full degree-4 cocycle guard took
    # about 10 s and 123 MB here; the report is pinned from that route
    proc, elapsed = run_process(
        "obstruction", "--catalog", "abelian_product", "--params", "exponents=[2,2,2,1,1]",
        "--ell", "2", "--n", "1", "--m", "2", "--random", "5", "--seed", "1",
    )
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert elapsed < 8
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "bbfbb16a5f773eb0b4bfd711b17cea970a204c1b2a2594a5903bbf3c8b9cf657"
    )


def test_order_512_obstruction_with_order_64_quotient():
    # |G| = 64: the report is pinned from the route that re-checked each Psi
    # with the degree-3 guard, which took about 3.1 s in-process
    proc, elapsed = run_process(
        "obstruction", "--catalog", "abelian_product", "--params", "exponents=[2,2,2,1,1,1]",
        "--ell", "2", "--n", "1", "--m", "2", "--random", "2", "--seed", "1",
    )
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert elapsed < 30
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "ce10ef3897bf4216de4ac44d02b2e551258bdee9124a955578a384c6824106b8"
    )


# (direction-2 phis checked, zero classes, image size) of exhaustive verify on
# the twisted class-2 groups, the same at m = 2 and 3: J = J_1 is cyclic, so
# every phi_gamma is 0, and 0 is the one phi with a zero class.  (7, 1, 7) has
# order 343 and (2, 3, 8) order 512
TWISTED_VERIFY = {
    (3, 1, 3): (9, 1, 1), (2, 2, 4): (16, 1, 1), (2, 2, 2): (4, 1, 1), (5, 1, 5): (25, 1, 1),
    (7, 1, 7): (49, 1, 1), (2, 3, 8): (64, 1, 1),
}
# sha256 of the report of one case, read from the relative path g.json
TWISTED_VERIFY_SHA256 = {
    ((7, 1, 7), 3): "f3054dce30e1a730f4235c191c8ac9807c07fb77590ebc18fb3ec33e72fcb77f",
}


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("case", TWISTED_CLASS2 + ((7, 1, 7), (2, 3, 8)))
def test_verify_asserts_direction2_past_ell_n_2(capsys, monkeypatch, tmp_path, case, m):
    # groups where the H^2 hypothesis holds at l^n in {3, 4, 5, 7, 8}:
    # direction 2 is asserted, and it passes
    ell, n, _ = case
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.json").write_text(json.dumps(twisted_class2_spec(*case)))
    code, out, _ = run(
        capsys, "verify", "--group-file", "g.json", "--ell", str(ell), "--n", str(n),
        "--m", str(m), "--exhaustive", "--max-order", "512",
    )
    assert code == 0
    rep = json.loads(out)
    d2 = rep["direction2"]
    assert rep["hypothesis"]["holds"] and rep["direction1"]["passed"]
    assert d2["asserted"] and d2["passed"] and rep["counterexamples"] == []
    assert (d2["checked"], d2["zero_class_count"], d2["image_size"]) == TWISTED_VERIFY[case]
    if (case, m) in TWISTED_VERIFY_SHA256:
        assert hashlib.sha256(out.encode()).hexdigest() == TWISTED_VERIFY_SHA256[case, m]


@pytest.mark.parametrize("exc", [ValueError, KeyError, TypeError])
def test_library_fault_is_not_an_input_error(monkeypatch, exc):
    # a builtin error raised mid-computation is a fault of the library, not an
    # input error: it keeps its traceback instead of exiting 2
    def fault(*args):
        raise exc("vector is not in the scaled image")

    monkeypatch.setattr(obstruction, "descale_vec", fault)
    with pytest.raises(exc, match="scaled image"):
        main([
            "verify", "--catalog", "quaternion8", "--ell", "2", "--n", "1", "--m", "2",
            "--exhaustive",
        ])


@pytest.mark.parametrize("method, exc, argv", [
    ("psi_m2_formula", WrongLevel, ["obstruction", *_QUATERNION8, "--m", "2", "--routes", "all"]),
    ("phi_from_gamma", GammaNotInSocleLevel, ["verify", *_QUATERNION8, "--m", "2", "--exhaustive"]),
])
def test_level_error_is_not_an_input_error(monkeypatch, method, exc, argv):
    # no input reaches either error: psi_m2_formula runs only at --m 2, and
    # verify draws its gammas from J_m.  Raised mid-computation, each is a
    # fault of the library and keeps its traceback instead of exiting 2
    def fault(self, *args):
        raise exc("raised mid-computation")

    monkeypatch.setattr(obstruction.ObstructionContext, method, fault)
    with pytest.raises(exc, match="mid-computation"):
        main(argv)


def test_heisenberg5_exhaustive_verify():
    # odd q, with the connecting map on each of the 30 phis over |G| = 25; the
    # report is pinned from the lifted-differential route, which took about 4.5 s
    proc, elapsed = run_process(
        "verify", "--catalog", "heisenberg", "--params", "ell=5", "--ell", "5", "--n", "1",
        "--m", "2", "--exhaustive", "--max-order", "125",
    )
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert elapsed < 10
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "99ddf077830f5d9cc9bde0af0edfa1b74a4c17c9b08bcf7f61a1e5d05c1a408d"
    )


def test_phi_file_happy_path(capsys, tmp_path):
    gf = mixer_group_file(tmp_path)
    pf = tmp_path / "phi.json"
    pf.write_text(json.dumps({"m": 2, "matrix": [[0, 0, 0], [0, 0, 0]]}))
    code, out, _ = run(
        capsys, "obstruction", "--group-file", str(gf), "--ell", "2", "--n", "1",
        "--m", "2", "--phi-file", str(pf),
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["records"][0]["zero_class"] is True


def test_obstruction_random_seeded(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "obstruction", "--catalog", "wreath_z4_z2", "--ell", "2", "--n", "1",
            "--m", "2", "--random", "5", "--seed", "11",
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_text_format(capsys):
    code, out, _ = run(
        capsys, "verify", "--catalog", "quaternion8", "--ell", "2", "--n", "1",
        "--m", "2", "--exhaustive", "--format", "text",
    )
    assert code == 0
    assert "direction 1" in out and "direction 2" in out
