"""In-process command-line tests: JSON payloads, exit codes, determinism."""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from ttow import QQ, Subframe
from ttow.cli import FIXTURE_NAMES, _build_parser, main, named_fixture
from ttow.jsonio import dumps, subframe_to_json, tensor_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out else None
    err = json.loads(captured.err) if captured.err else None
    return code, out, err


def test_ann_fixture_fig1a(capsys):
    code, out, _ = run(capsys, "ann", "--fixture", "fig1a")
    assert code == 0
    assert out["schema"] == "ttow/1" and out["command"] == "ann"
    assert sorted(out["ideal"]["strings"]) == sorted(["x0^2 - x0", "x0*x1", "x1^2 - x1"])


def test_gb_command(capsys):
    code, out, _ = run(
        capsys, "gb", "--poly", "x0^2 - x1", "--poly", "x0*x1 - 1", "--nvars", "2"
    )
    assert code == 0
    assert out["ideal"]["strings"]  # a nonzero reduced basis


def test_der_dimension_ghz(capsys):
    code, out, _ = run(capsys, "der", "--fixture", "ghz")
    assert code == 0
    assert out["dimension"] == 4
    assert out["closure"]["closed"] is True


def test_centroid_dimension_and_unital_flag(capsys):
    code, out, _ = run(capsys, "centroid", "--fixture", "truncpoly-3")
    assert code == 0
    assert out["dimension"] == 3
    assert out["closure"]["unital"] is True


def test_nucleus_requires_axes(capsys):
    code, out, err = run(capsys, "nucleus", "--fixture", "matmul-2")
    assert code == 2
    assert out is None
    assert err["error"]["type"] == "ValidationError"
    assert "--axes" in err["error"]["message"]
    code, out, _ = run(capsys, "nucleus", "--fixture", "matmul-2", "--axes", "1", "2")
    assert code == 0
    assert out["dimension"] == 4


def test_adjoint_dimension_dotprod(capsys):
    code, out, _ = run(capsys, "adjoint", "--fixture", "dotprod-3")
    assert code == 0
    assert out["dimension"] == 9


def test_densor_ghz(capsys):
    code, out, _ = run(capsys, "densor", "--fixture", "ghz")
    assert code == 0
    assert out["dimension"] == 2
    assert len(out["basis"]) == 2


def test_composable_verdicts(capsys):
    code, out, _ = run(capsys, "composable", "--poly", "x0 - x1*x2")
    assert code == 0
    assert out["verdict"]["outcome"] == "composable"
    code, out, _ = run(capsys, "composable", "--poly", "x0 - 2*x1")
    assert code == 0
    assert out["verdict"]["outcome"] == "not_composable"


# The five composability systems of acceptance criterion 6, with their variable count.
COMPOSABLE_SYSTEMS = [
    (["x0 - x1*x2"], 3),
    (["x1 - x2"], 3),
    (["x0^2 - x1"], 2),
    (["x0 - 2*x1"], 2),
    (["x0 - x1*x2", "x0*x1 - x2"], 3),
]


@pytest.mark.parametrize("polys, nvars", COMPOSABLE_SYSTEMS, ids=["; ".join(p) for p, _ in COMPOSABLE_SYSTEMS])
def test_composable_verdict_is_the_same_under_lex(capsys, polys, nvars):
    # the saturation eliminates under a block order that keeps the ideal's own order
    argv = ["composable", "--nvars", str(nvars)] + [a for p in polys for a in ("--poly", p)]
    verdicts = {}
    for order in ("grevlex", "lex"):
        code, out, _ = run(capsys, *argv, "--order", order)
        assert code == 0
        verdicts[order] = out["verdict"]
    assert verdicts["lex"] == verdicts["grevlex"]


def test_nabla_and_verify_singularity(capsys, tmp_path):
    t = named_fixture("cplx", QQ)["tensor"]
    one = [QQ.one, QQ.zero]
    U = Subframe(t.frame, [[one], [one], [one]])
    sf = tmp_path / "subframe.json"
    sf.write_text(dumps(subframe_to_json(U)))
    code, out, _ = run(capsys, "nabla", "--fixture", "cplx", "--subframe", str(sf))
    assert code == 0
    assert sorted(map(tuple, out["complex"]["facets"])) == [(0, 1), (0, 2), (1, 2)]
    assert out["sr_ideal"]["strings"] == ["x0*x1*x2"]
    code, out, _ = run(
        capsys,
        "verify-singularity", "--fixture", "cplx", "--subframe", str(sf),
        "--samples", "8", "--seed", "3",
    )
    assert code == 0
    assert out["holds"] is True
    assert out["ideal"]["strings"] == ["x0*x1*x2"]


def test_probe_finds_monomial(capsys):
    code, out, _ = run(capsys, "probe", "--fixture", "fig1a")
    assert code == 0
    assert out["monomial"] == [1, 1]


def test_homotopism_verify_and_compose(capsys, tmp_path):
    t = named_fixture("ghz", QQ)["tensor"]
    swap = [[0, 1], [1, 0]]
    payload = {
        "src": tensor_to_json(t),
        "dst": tensor_to_json(t),
        "maps": [swap, swap, swap],
    }
    f = tmp_path / "hom.json"
    f.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "homotopism", "verify", "--in", str(f))
    assert code == 0 and out["holds"] is True

    comp = tmp_path / "comp.json"
    comp.write_text(json.dumps({"f": payload, "g": payload}))
    code, out, _ = run(capsys, "homotopism", "compose", "--in", str(comp))
    assert code == 0
    assert out["maps"] == [[[1, 0], [0, 1]]] * 3


def test_fixtures_listing_and_payload(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    assert out["available"] == FIXTURE_NAMES
    code, out, _ = run(capsys, "fixtures", "--fixture", "ghz")
    assert code == 0
    assert out["tensor"]["dims"] == [2, 2, 2]


def test_shipped_fixture_corpus_is_the_cli_payload(capsys):
    corpus = Path(__file__).resolve().parents[1] / "src" / "ttow" / "data" / "fixtures"
    files = {path.stem: path for path in corpus.glob("*.json")}
    assert sorted(files) == sorted(FIXTURE_NAMES)
    for name in FIXTURE_NAMES:
        code, out, _ = run(capsys, "fixtures", "--fixture", name)
        assert code == 0
        del out["schema"], out["command"]
        assert json.loads(files[name].read_text()) == out, name


def test_readme_cli_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln.split("#", 1)[0] for ln in block.splitlines() if ln.startswith("ttow ")]
    assert len(lines) >= 10
    parser = _build_parser()
    for line in lines:
        argv = shlex.split(line)[1:]
        assert parser.parse_args(argv).command == argv[0], line


def test_parser_is_built_once_and_append_defaults_stay_empty(capsys):
    assert _build_parser() is _build_parser()
    for _ in range(2):
        code, out, _ = run(capsys, "gb", "--poly", "x0^2 - x1", "--nvars", "2")
        assert code == 0
        assert out["ideal"]["strings"] == ["x0^2 - x1"]
    assert _build_parser().parse_args(["gb"]).poly == []


def test_validation_errors_exit_2(capsys):
    code, _, err = run(capsys, "ann", "--fixture", "no-such-fixture")
    assert code == 2
    assert err["error"]["type"] == "ValidationError"
    code, _, err = run(capsys, "ann")  # neither --fixture nor --in
    assert code == 2
    code, _, err = run(capsys, "composable")  # no polynomials
    assert code == 2


def test_prime_field_flag(capsys):
    code, out, _ = run(capsys, "densor", "--fixture", "sl2", "--field", "prime:101")
    assert code == 0
    assert out["dimension"] == 1


def test_output_file_and_determinism(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["ann", "--fixture", "ghz-swap", "--out", str(out1)]) == 0
    assert main(["ann", "--fixture", "ghz-swap", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_text() == out2.read_text()


def _tensor(entries=None, dense=None, dims=(2, 2, 2)):
    obj = {"field": {"type": "rational"}, "dims": list(dims)}
    if dense is not None:
        obj["dense"] = dense
    else:
        obj["entries"] = entries
    return obj


_GHZ = _tensor([{"idx": [0, 0, 0], "val": 1}, {"idx": [1, 1, 1], "val": 1}])
_SWAP = [[0, 1], [1, 0]]

# Each bad input: argv (with {dir} for a scratch directory), the files to
# write there first, and a text the error message must contain.
BAD_INPUTS = [
    ("unknown flag", ["der", "--fixture", "ghz", "--bogus"], {}, "--bogus"),
    ("flag without its value", ["ann", "--fixture", "fig1a", "--seed"], {}, "--seed"),
    ("flag value not an integer", ["ann", "--fixture", "fig1a", "--seed", "x"], {}, "--seed"),
    ("unknown command", ["bogus"], {}, "bogus"),
    ("missing --in", ["der", "--in", "{dir}/none.json"], {}, "none.json"),
    ("unreadable --in", ["der", "--in", "{dir}"], {}, "cannot read"),
    (
        "missing --subframe",
        ["nabla", "--fixture", "cplx", "--subframe", "{dir}/none.json"],
        {},
        "none.json",
    ),
    ("malformed JSON", ["der", "--in", "{dir}/bad.json"], {"bad.json": "{\"dims\": [2,"}, "bad.json"),
    (
        "subframe without axes",
        ["verify-singularity", "--fixture", "cplx", "--subframe", "{dir}/U.json"],
        {"U.json": '{"bases": []}'},
        "'axes'",
    ),
    (
        "tensor without field",
        ["der", "--in", "{dir}/t.json"],
        {"t.json": '{"dims": [1, 1, 1], "entries": []}'},
        "'field'",
    ),
    ("non-integer prime", ["der", "--fixture", "ghz", "--field", "prime:abc"], {}, "prime:abc"),
    (
        "tensor idx out of range",
        ["der", "--in", "{dir}/t.json"],
        {"t.json": json.dumps(_tensor([{"idx": [0, 0, 5], "val": 1}]))},
        "[0, 0, 5]",
    ),
    (
        "tensor idx too short",
        ["der", "--in", "{dir}/t.json"],
        {"t.json": json.dumps(_tensor([{"idx": [1, 1], "val": 1}]))},
        "[1, 1]",
    ),
    (
        "tensor val not a scalar",
        ["der", "--in", "{dir}/t.json"],
        {"t.json": json.dumps(_tensor([{"idx": [0, 0, 0], "val": "abc"}]))},
        "'val'",
    ),
    (
        "tensor val divides by zero",
        ["der", "--in", "{dir}/t.json"],
        {"t.json": json.dumps(_tensor([{"idx": [0, 0, 0], "val": "1/0"}]))},
        "'val'",
    ),
    (
        "dense tensor not a scalar",
        ["der", "--in", "{dir}/t.json"],
        {"t.json": json.dumps(_tensor(dense=["1", "x"], dims=(1, 1, 2)))},
        "'dense'",
    ),
    (
        "operator matrix not a scalar",
        ["ann", "--in", "{dir}/t.json"],
        {
            "t.json": json.dumps(
                {"tensor": _GHZ, "operator": {"matrices": [_SWAP, _SWAP, [[0, "y"], [1, 0]]]}}
            )
        },
        "'matrices'",
    ),
    (
        "polynomial coeff not a scalar",
        ["closure", "--in", "{dir}/c.json"],
        {
            "c.json": json.dumps(
                {
                    "dims": [2, 2, 2],
                    "polys": [{"terms": [{"coeff": "z", "exp": [1, 0, 0]}]}],
                    "operators": [],
                }
            )
        },
        "'coeff'",
    ),
    (
        "subframe basis not a scalar",
        ["verify-singularity", "--fixture", "cplx", "--subframe", "{dir}/U.json"],
        {"U.json": json.dumps({"axes": [{"axis": 0, "basis": [["1", "w"]]}]})},
        "'basis'",
    ),
    (
        "homotopism map not a scalar",
        ["homotopism", "verify", "--in", "{dir}/h.json"],
        {
            "h.json": json.dumps(
                {"src": _GHZ, "dst": _GHZ, "maps": [_SWAP, _SWAP, [[0, "v"], [1, 0]]]}
            )
        },
        "'maps'",
    ),
]


@pytest.mark.parametrize(
    "argv,files,needle", [case[1:] for case in BAD_INPUTS], ids=[case[0] for case in BAD_INPUTS]
)
def test_bad_input_is_a_structured_exit_2(capsys, tmp_path, argv, files, needle):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, out, err = run(capsys, *[a.replace("{dir}", str(tmp_path)) for a in argv])
    assert code == 2
    assert out is None
    assert err["error"]["type"] == "ValidationError"
    assert needle in err["error"]["message"]


# sha256 of the stdout of each command, recorded before the batched action
# kernel replaced the per-tensor one; SUB is the subframe of the fixture
# (SUBFRAMES), written to a file.  A change to the action, the cokernel or
# Buchberger that moves an output byte fails here.
SUBFRAMES = {
    "cplx": [[[1, 0]]] * 3,
    "matmul-2": [[[1, 0, 0, 0], [0, 1, 0, 0]]] * 3,
    "upper-triangular": [[[0, 1, 0]]] * 3,
}
GOLDEN = [
    ("ann --fixture fig1a",
     "5ba7878f47272eb9c1ba733f2bd488c9f88799dda7992a325441561791eb6df5"),
    ("ann --fixture fig1a --field prime:101",
     "657b773a248d1d8eebc6802a4dfb4b6796b9855b0158b7e4eb8f0643197b63e3"),
    ("ann --fixture fig1b",
     "50d70906c2ae2c47205e3d512e9f9a0c6a96f0b2927fb1cee03a80cf9dfa126c"),
    ("ann --fixture fig1b --field prime:101",
     "b6670e006067a995fe1f16b5643f73ed4aa7f321125e4d478102dbc0d94f9428"),
    ("ann --fixture ghz-swap",
     "2569f403aabeca5aec4ef0e5438d417af1dffc8bd8dcbd65bd79edcf81ee6d7a"),
    ("ann --fixture ghz-swap --field prime:101",
     "85a34e21f25f97351574a828698a42293378c4b7fff1481ddac3e63bb672eaab"),
    ("ann --fixture w-swap",
     "aba0dbff8b4a446ed3f2254b256e81612bd253d773c7c583e1f10d670d9741fe"),
    ("ann --fixture w-swap --field prime:101",
     "4aaa167f77743abd5c6b99f15a2e7e7fe09cc6bcc7b810e092ce2a73b31eef19"),
    ("probe --fixture fig1a",
     "36589c0bf365516d63173a97c0a101f0c0dc7b88fa152257304515ea9675323d"),
    ("probe --fixture fig1a --field prime:101",
     "36589c0bf365516d63173a97c0a101f0c0dc7b88fa152257304515ea9675323d"),
    ("probe --fixture fig1b",
     "acfde37c1b2b09bd22c9370dfc3e4a2e170b92cb101b44cedf6811694ee60a62"),
    ("probe --fixture fig1b --field prime:101",
     "acfde37c1b2b09bd22c9370dfc3e4a2e170b92cb101b44cedf6811694ee60a62"),
    ("probe --fixture ghz-swap",
     "5c94e9879e9b69afe472d75888cc5283b2c6a20ce05d7f6ddc0498e69e72ac60"),
    ("probe --fixture ghz-swap --field prime:101",
     "5c94e9879e9b69afe472d75888cc5283b2c6a20ce05d7f6ddc0498e69e72ac60"),
    ("probe --fixture w-swap",
     "5c94e9879e9b69afe472d75888cc5283b2c6a20ce05d7f6ddc0498e69e72ac60"),
    ("probe --fixture w-swap --field prime:101",
     "5c94e9879e9b69afe472d75888cc5283b2c6a20ce05d7f6ddc0498e69e72ac60"),
    ("verify-singularity --fixture cplx --subframe SUB --samples 4 --seed 3",
     "4437d3acd1d20fad32753e988d677a38040bcac38fb374f78b1b8cc76b7196ff"),
    ("verify-singularity --fixture cplx --subframe SUB --samples 4 --seed 3 --field prime:101",
     "1c3ce7d38e902d852f90f6f0fb35c952d0f049afd424a138a8ef285fac5bd1c8"),
    ("verify-singularity --fixture matmul-2 --subframe SUB --samples 4 --seed 3",
     "bec2b09e0dfb3a9f31b86fa5ca73d51c4f73b8d407c2380770d36d7ee405faad"),
    ("verify-singularity --fixture matmul-2 --subframe SUB --samples 4 --seed 3 --field prime:101",
     "e7bfc097e2a0c918b4b3add9bbee601a15f8529388fa79e54de15c1f6a439147"),
    ("verify-singularity --fixture upper-triangular --subframe SUB --samples 4 --seed 3",
     "271b374b57b726249e67b8869c52d7dab730e2ddf96963ce39440ef483d35ed7"),
    ("verify-singularity --fixture upper-triangular --subframe SUB --samples 4 --seed 3 --field prime:101",
     "91cff134b401a98b8da81a3a17e533ce73f52b2aebaa6fd39969e5329c75b998"),
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_golden_stdout(capsys, tmp_path, command, digest):
    argv = command.split()
    if "SUB" in argv:
        sub = tmp_path / "U.json"
        bases = SUBFRAMES[argv[argv.index("--fixture") + 1]]
        sub.write_text(json.dumps({"axes": [{"axis": a, "basis": rows} for a, rows in enumerate(bases)]}))
        argv[argv.index("SUB")] = str(sub)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
