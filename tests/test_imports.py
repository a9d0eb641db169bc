import ast
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def modules_after(prefixes, code, *args):
    """Names of the modules under ``prefixes``, a tuple of module names, loaded once
    ``code`` has run in a fresh interpreter; ``sys.argv[2:]`` are ``args``."""
    prelude = "import sys; sys.path.insert(0, sys.argv[1])\n"
    report = (
        "\nprint(*(m for m in sys.modules"
        f" if any(m == p or m.startswith(p + '.') for p in {prefixes!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", prelude + code + report, str(SRC), *args],
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.split()


def cli_modules_after(prefixes, args, expect_exit=0):
    """Modules under ``prefixes`` loaded by one ``cli.main(args)`` in a fresh interpreter."""
    code = (
        "import contextlib, io, json\n"
        "from priorscan.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    status = main(json.loads(sys.argv[2]))\n"
        f"if status != {expect_exit}:\n"
        "    sys.exit(f'exit code {status}')"
    )
    return modules_after(prefixes, code, json.dumps(args))


def test_import_loads_no_scipy():
    # every scipy subpackage costs start-up that each CLI call pays: scipy.stats and
    # scipy.optimize about a second, scipy.special and scipy.fft (with its array-API
    # layer and numpy.f2py) most of the rest
    assert modules_after(("scipy",), "import priorscan, priorscan.cli") == []


def test_import_and_name_lookups_load_no_numpy():
    # a name loads its own module on first use; dir() and a missing name load none
    code = (
        "import priorscan\n"
        "assert set(priorscan.__all__) <= set(dir(priorscan))\n"
        "try:\n"
        "    priorscan.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert str(exc) == \"module 'priorscan' has no attribute 'no_such_name'\"\n"
        "else:\n"
        "    sys.exit('no AttributeError')\n"
        "priorscan.calibrate(0.1), priorscan.PriorSpec(priorscan.Family.GAMMA,"
        " priorscan.DEFAULT_PRIOR)"
    )
    loaded = modules_after(("numpy", "priorscan"), code)
    assert sorted(loaded) == ["priorscan", "priorscan.calibration", "priorscan.errors",
                              "priorscan.params"]


def test_calibrate_and_input_errors_load_no_numpy(tmp_path):
    config = tmp_path / "bad_family.cfg"
    config.write_text("family = gama\ngamma0 = 1.5,0.5\n")
    gamma = ["--family", "gamma", "--gamma0", "1,0.34", "--outdir", str(tmp_path / "out")]
    assert cli_modules_after(("numpy",), ["calibrate", "--mu", "1"]) == []
    assert cli_modules_after(("numpy",), ["grid", *gamma, "--epsilon", "0.9"], 2) == []
    assert cli_modules_after(("numpy",), ["--config", str(config), "grid"], 2) == []
    assert not (tmp_path / "out").exists()


def test_grid_loads_neither_engine(tmp_path):
    args = ["grid", "--family", "gamma", "--gamma0", "1,0.34", "--n-angles", "16",
            "--outdir", str(tmp_path)]
    assert cli_modules_after(("priorscan.reweight", "priorscan.rw1"), args) == []
    assert (tmp_path / "grid_contour.csv").is_file()


def test_exact_engine_loads_no_reweighting(tmp_path, counts_csv):
    # the exact engine is the oracle of the reweighting one, so it runs without it
    args = ["rw1", "--data", str(counts_csv), "--engine", "exact", "--n-angles", "16",
            "--outdir", str(tmp_path)]
    assert cli_modules_after(("priorscan.reweight",), args) == []
    assert (tmp_path / "rw1.json").is_file()


def test_result_making_commands_load_no_numpy_ma(tmp_path, counts_csv):
    # a result's median is taken without numpy's NaN check, which imports numpy.ma (12-14 ms
    # of each process's start-up)
    from oracles import write_density_csv
    from priorscan import Family, ParamPoint, PriorSpec, Scale, tabulate_prior

    posterior = tmp_path / "posterior.csv"
    write_density_csv(posterior, tabulate_prior(PriorSpec(Family.GAMMA, ParamPoint(1.0, 0.34)), Scale.LOG_PARAMETER))
    runs = {"sensitivity": ["--family", "gamma", "--gamma0", "1,0.34", "--log-scale", "--posterior", str(posterior)],
            "rw1": ["--data", str(counts_csv)]}
    for command, args in runs.items():
        outdir = tmp_path / command
        assert cli_modules_after(("numpy.ma",), [command, *args, "--outdir", str(outdir)]) == []
        assert any(outdir.glob("*.json"))


def test_tabulate_prior_loads_no_scipy():
    # numpy is the only runtime dependency: the tabulation windows are solved with it alone
    code = (
        "from priorscan import Family, ParamPoint, PriorSpec, Scale, tabulate_prior\n"
        "tabulate_prior(PriorSpec(Family.GAMMA, ParamPoint(1.5, 2.0)), Scale.NATURAL)\n"
        "tabulate_prior(PriorSpec(Family.GAMMA, ParamPoint(0.05, 2.0)), Scale.LOG_PARAMETER)\n"
        "tabulate_prior(PriorSpec(Family.NORMAL, ParamPoint(-1.0, 3.0)))"
    )
    assert modules_after(("scipy",), code) == []


def test_cli_subcommands_load_no_scipy(tmp_path, counts_csv):
    from oracles import write_density_csv
    from priorscan import Family, ParamPoint, PriorSpec, Scale, tabulate_prior

    posterior = tmp_path / "posterior.csv"
    base = PriorSpec(Family.GAMMA, ParamPoint(1.0, 0.34))
    write_density_csv(posterior, tabulate_prior(base, Scale.LOG_PARAMETER))
    gamma = ["--family", "gamma", "--gamma0", "1,0.34"]
    runs = [
        ["grid", *gamma],
        ["sensitivity", *gamma, "--log-scale", "--posterior", str(posterior)],
        ["rw1", "--data", str(counts_csv), "--engine", "exact"],
        ["rw1", "--data", str(counts_csv), "--engine", "reweight"],
    ]
    runs = [
        [*args, "--n-angles", "64", "--outdir", str(tmp_path / str(i))]
        for i, args in enumerate(runs)
    ]
    code = (
        "import contextlib, io, json\n"
        "from priorscan.cli import main\n"
        "for args in json.loads(sys.argv[2]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        status = main(args)\n"
        "    if status != 0:\n"
        "        sys.exit(f'exit code {status} from {args}')"
    )
    assert modules_after(("scipy",), code, json.dumps(runs)) == []
    assert all((tmp_path / str(i)).is_dir() for i in range(len(runs)))


def test_public_api_size():
    # the pipeline's names only; a new export has to displace an old one
    import priorscan

    names = priorscan.__all__
    assert names == sorted(set(names))
    assert all(hasattr(priorscan, name) for name in names)
    assert set(names) <= set(dir(priorscan))
    assert len(names) <= 40
    # contours and results are record arrays, with no object per direction
    assert not hasattr(priorscan, "GridPoint") and not hasattr(priorscan, "SensitivityEntry")


def test_each_pipeline_stage_keeps_its_own_names():
    import priorscan

    # params (the numpy-free vocabulary) and grids -> families -> contour ->
    # sensitivity (results) -> the two engines -> cli
    local, other = {}, {}
    top_local, top_other = {}, {}  # imports at module level, which run on import
    for path in sorted((SRC / "priorscan").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                local.setdefault(path.stem, set()).add(node.module)
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, f"{path.stem} imports {private} from {node.module}"
            elif isinstance(node, ast.Import):
                other.setdefault(path.stem, set()).update(alias.name for alias in node.names)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                top_local.setdefault(path.stem, set()).add(node.module)
            elif isinstance(node, ast.ImportFrom):
                top_other.setdefault(path.stem, set()).add(node.module.partition(".")[0])
            elif isinstance(node, ast.Import):
                top_other.setdefault(path.stem, set()).update(
                    alias.name.partition(".")[0] for alias in node.names
                )
    # the result layer serves both engines and calls neither, and neither engine
    # imports the other: the exact one is the reweighting one's oracle
    assert not local["sensitivity"] & {"reweight", "rw1"}
    assert "reweight" not in local["rw1"] and "rw1" not in local["reweight"]
    # one CSV reader, in grids
    assert [stem for stem, names in other.items() if "csv" in names] == ["grids"]
    # a result is built from its contour
    assert list(inspect.signature(priorscan.assemble_result).parameters) == ["grid", "h_post"]
    # the vocabulary needs only the errors; the package itself imports none of its modules
    assert top_local["params"] == {"errors"}
    assert "__init__" not in top_local
    # the CLI starts on the standard library and numpy-free modules alone
    startup, todo = set(), ["cli"]
    while todo:
        module = todo.pop()
        if module not in startup:
            startup.add(module)
            todo.extend(top_local.get(module, ()))
    assert startup == {"cli", "calibration", "errors", "params"}
    assert not [module for module in startup if "numpy" in top_other.get(module, ())]


def test_every_definition_is_reached_from_the_api_or_the_cli():
    # a function or class that only tests call is a second route, and belongs in
    # tests/oracles.py; top-level assignments are followed too, as _EXIT_CODES is
    import priorscan

    bound, imported = {}, {}
    for path in sorted((SRC / "priorscan").glob("*.py")):
        module, names = path.stem, {}
        imported[module] = names
        tree = ast.parse(path.read_text())
        # at any depth: cli imports each engine inside the function that runs it
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names.update((a.asname or a.name, (node.module, a.name)) for a in node.names)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound[module, node.name] = node
            elif isinstance(node, ast.Assign):
                bound.update(((module, target.id), node) for target in node.targets)
    # the package's names load from their modules through its lazy table
    imported["__init__"].update((name, (module, name)) for name, module in priorscan._MODULE_OF.items())

    def resolve(module, name):
        while (module, name) not in bound and name in imported[module]:
            module, name = imported[module][name]
        return (module, name) if (module, name) in bound else None

    reached, todo = set(), [resolve("__init__", name) for name in priorscan.__all__]
    # the interpreter calls the package's attribute hooks
    todo += [("__init__", "__getattr__"), ("__init__", "__dir__"), ("cli", "main")]
    while todo:
        key = todo.pop()
        if key is None or key in reached:
            continue
        reached.add(key)
        todo.extend(resolve(key[0], node.id) for node in ast.walk(bound[key])
                    if isinstance(node, ast.Name))
    unreached = sorted(f"{module}.{name}" for (module, name), node in bound.items()
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and (module, name) not in reached)
    assert not unreached, f"reached only from tests: {unreached}"


def test_readme_quick_start_runs():
    readme = (SRC.parent / "README.md").read_text()
    (code,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    out = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1])\n" + code, str(SRC)],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-2:] == ["True", "True"]
