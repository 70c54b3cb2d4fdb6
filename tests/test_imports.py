"""Every name a library module imports is used in that module, every
library function, public method and property has a caller outside the tests,
and every option (a defaulted config field or parameter) is set outside the
tests."""
import ast
import collections
import importlib
import inspect
import itertools
import json
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "silstream"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")  # __init__ re-exports


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    assert unused_imports("import math\nimport os\nos.sep\n") == ["line 1: math"]


ROOT = SRC.parent.parent
CALLER_DIRS = ("src", "demos", "perfbench")
# Module-level functions that perfbench/tracing.py hooks by name. The benchmark
# pins their names and leading parameters, so they stay even if library code
# stops calling them; nothing else belongs here.
PINNED = {
    "attention.energies",
    "attention.mocha_infer_step",
    "attention.soft_step",
    "decoder.decode_step",
    "encoder.encode_backward",
    "encoder.encode_with_cache",
    "nn.gru_step",
    "synth.gen_corpus",
    "trainer.backward",
    "trainer.forward_loss",
}
# Public methods that perfbench/tracing.py's ModelProxy looks up by name
# (PROXY_PARAMS); nothing else belongs here.
PINNED_METHODS = {"model.NeuralModel.decode_step"}


def package_exports(init_source: str) -> dict[str, str]:
    """The names the package re-exports, each as "module.name"."""
    return {
        alias.asname or alias.name: f"{node.module}.{alias.name}"
        for node in ast.parse(init_source).body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }


def referenced_functions(source: str, module: str | None, modules: set[str], exports: dict[str, str]) -> set[str]:
    """Every library name ``source`` reads, as "module.name": through an
    imported module (``nn.gru_step``), an imported name, the package
    (``silstream.gen_corpus``) or, inside library module ``module``, a bare
    name. A function's references to itself are left out."""
    tree = ast.parse(source)
    mods, names, packages = {}, {}, set()  # local alias -> module / "module.name"; package aliases
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "silstream":
                    packages.add(alias.asname or alias.name)
                elif alias.name.startswith("silstream.") and alias.asname:
                    mods[alias.asname] = alias.name.split(".")[1]
        elif isinstance(node, ast.ImportFrom):
            base = node.module if node.level == 1 else (node.module or "").partition("silstream")[2].lstrip(".")
            if node.level == 0 and not (node.module or "").startswith("silstream"):
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if base:
                    names[local] = f"{base}.{alias.name}"
                elif alias.name in modules:
                    mods[local] = alias.name
                elif alias.name in exports:
                    names[local] = exports[alias.name]
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id in names:
            found.add(names[node.id])
        elif isinstance(node, ast.Name) and module is not None and node.id not in inside:
            found.add(f"{module}.{node.id}")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in mods:
                found.add(f"{mods[node.value.id]}.{node.attr}")
            elif node.value.id in packages and node.attr in exports:
                found.add(exports[node.attr])
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def uncalled_functions(library: dict[str, str], callers: list[tuple[str | None, str]]) -> list[str]:
    """The module-level functions of ``library`` (module name -> source), as
    "module.function", that no ``(module or None, source)`` in ``callers`` reads."""
    exports = package_exports(library.get("__init__", ""))
    used = set().union(*(referenced_functions(source, m, set(library), exports) for m, source in callers))
    return [
        f"{name}.{node.name}"
        for name, source in sorted(library.items())
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and f"{name}.{node.name}" not in used
    ]


def read_attributes(source: str) -> set[tuple[str | None, str]]:
    """Every attribute ``source`` reads: ``self.name`` or ``cls.name`` inside
    class ``C`` as ``(C, name)``, any other ``x.name`` as ``(None, name)``.
    A method's references to its own name are left out."""
    found = set()

    def visit(node, cls, inside):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Attribute) and node.attr not in inside:
            on_self = isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
            found.add((cls if on_self else None, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, inside)

    visit(ast.parse(source), None, frozenset())
    return found


def class_members(library: dict[str, str]) -> dict[str, set[str]]:
    """For each name, the module-level classes of ``library``, as
    "module.Class", that have it as a method, property or field: a name
    assigned in the class body or on ``self`` in one of its methods."""
    owners = collections.defaultdict(set)
    for module, source in library.items():
        for cls in ast.parse(source).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    owners[item.name].add(f"{module}.{cls.name}")
                targets = item.targets if isinstance(item, ast.Assign) else [getattr(item, "target", None)]
                for target in targets:
                    if isinstance(target, ast.Name):
                        owners[target.id].add(f"{module}.{cls.name}")
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"):
                    owners[node.attr].add(f"{module}.{cls.name}")
    return owners


def uncalled_methods(library: dict[str, str], callers: list[tuple[str | None, str]],
                     shared_reads=frozenset()) -> list[str]:
    """The public methods and properties of the module-level classes of
    ``library``, as "module.Class.method", whose name no source in ``callers``
    reads as an attribute: on ``self`` inside the class, or on any other object
    (attributes are matched by name, as no types are inferred). When another
    library class also has the name (``class_members``), a read on another
    object counts only for a method that ``shared_reads`` names."""
    used = set().union(*(read_attributes(source) for _, source in callers))
    owners = class_members(library)
    missing = []
    for name, source in sorted(library.items()):
        for cls in ast.parse(source).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) or item.name.startswith("_"):
                    continue
                method = f"{name}.{cls.name}.{item.name}"
                shared = owners[item.name] != {f"{name}.{cls.name}"} and method not in shared_reads
                if (cls.name, item.name) not in used and ((None, item.name) not in used or shared):
                    missing.append(method)
    return missing


# Public methods and properties whose name another library class also has,
# each with the callers that reach it through a read on another object.
_INTERFACE = "the model interface: the streamer and decoder call it on whichever model they drive"
SHARED_READS = {
    **{f"{cls}.{method}": _INTERFACE for cls in ("model.NeuralModel", "synth.OracleModel")
       for method in ("encoder_reset", "encoder_push", "encoder_finish", "decode_start", "decode_steps")},
    "model.NeuralModel.total_reduction": "StreamSession reads model.total_reduction to size its buffers",
    "encoder.EncoderConfig.total_reduction": "NeuralModel.total_reduction reads cfg.encoder.total_reduction",
    "encoder.PyramidalEncoder.push": "NeuralModel.encoder_push calls self._encoder.push",
    "streamer.StreamSession.push": "stream_decode and perfbench's stream workloads call session.push",
    "data.Segment.length": "the labeler and the oracle read seg.length of alignment segments",
}


def library_and_callers() -> tuple[dict[str, str], list[tuple[str | None, str]]]:
    library = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    callers = [
        (p.stem if p.parent == SRC else None, p.read_text(encoding="utf-8"))
        for d in CALLER_DIRS
        for p in (ROOT / d).rglob("*.py")
        if "tests" not in p.relative_to(ROOT).parts
    ]
    return library, callers


def test_every_library_function_has_a_caller_outside_the_tests():
    missing = [name for name in uncalled_functions(*library_and_callers()) if name not in PINNED]
    assert missing == [], "no caller outside tests/: move these to tests/support.py or delete them"


def test_every_public_method_has_a_caller_outside_the_tests():
    missing = [name for name in uncalled_methods(*library_and_callers(), SHARED_READS) if name not in PINNED_METHODS]
    assert missing == [], "no caller outside tests/: move these to tests/support.py or delete them"


def test_shared_reads_name_shared_methods():
    library, _ = library_and_callers()
    owners = class_members(library)
    for method in SHARED_READS:
        cls, _, name = method.rpartition(".")
        assert cls in owners[name] and len(owners[name]) > 1, method


def test_pinned_functions_are_hooked_by_the_benchmark():
    tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    hooked = set()
    for node in ast.walk(tracing):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Hook" and len(node.args) > 3:
            target = getattr(importlib.import_module(node.args[2].value), node.args[3].value.split(".")[0])
            if inspect.isfunction(target):  # where the hooked name is defined, not where it is looked up
                hooked.add(f"{target.__module__.rpartition('.')[2]}.{target.__name__}")
    assert PINNED <= hooked


def test_pinned_methods_are_proxied_by_the_benchmark():
    tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    proxied = next(ast.literal_eval(node.value) for node in tracing.body
                   if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "PROXY_PARAMS")
    assert {name.rpartition(".")[2] for name in PINNED_METHODS} <= set(proxied)


def test_detects_an_uncalled_function():
    library = {
        "m": "def used():\n    pass\n\ndef unused():\n    return unused()\n\ndef push():\n    pass\n",
        "n": "def used():\n    pass\n",
    }
    caller = "from silstream import m\nm.used()\nsession.push()\n"
    # a call of itself is no caller, nor is a method or another module's function of the same name
    assert uncalled_functions(library, [("m", library["m"]), (None, caller)]) == ["m.unused", "m.push", "n.used"]


def test_detects_an_uncalled_method():
    library = {"m": "class A:\n    def used(self):\n        return self.mine()\n\n    def mine(self):\n        pass\n\n"
                    "    @property\n    def shown(self):\n        return self.shown\n\n"
                    "    def _private(self):\n        pass\n\n"
                    "class B:\n    def mine(self):\n        pass\n\n    def called(self):\n        pass\n\n"
                    "    def size(self):\n        pass\n\n    def push(self):\n        pass\n\n"
                    "    def run(self):\n        pass\n",
               "n": "class C:\n    size: int = 0\n\n    def __init__(self):\n        self.push = None\n\n"
                    "class D:\n    def run(self):\n        pass\n"}
    caller = "a.used()\nb.called\nx.size\nx.push\nx.run()\n"
    # a read of self.name counts for that class only; a method reading its own name is no caller;
    # a read on another object of a name another class has as a method, property or field counts
    # only for the methods named in shared_reads
    callers = [("m", library["m"]), ("n", library["n"]), (None, caller)]
    assert uncalled_methods(library, callers) == ["m.A.shown", "m.B.mine", "m.B.size", "m.B.push", "m.B.run",
                                                  "n.D.run"]
    assert uncalled_methods(library, callers, {"m.B.run"}) == ["m.A.shown", "m.B.mine", "m.B.size", "m.B.push",
                                                               "n.D.run"]


# Options that no call outside tests/ sets by name, each with the reason it stays.
UNSET_ALLOWED = {
    "synth.CorpusSpec.lead_silence_frames": "the CLI sets it by a computed name, from --lead-silence-min "
                                            "and --lead-silence-max",
    "cli.main.argv": "the console script calls main() without arguments, so argparse reads sys.argv",
}


def _frozen_dataclass(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               and any(k.arg == "frozen" and getattr(k.value, "value", None) is True for k in d.keywords)
               for d in cls.decorator_list)


def _init_fields(cls: ast.ClassDef) -> tuple[list[str], list[str]]:
    """A dataclass's init fields in order, and those of them with a default."""
    names, defaulted = [], []
    for item in cls.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        value = item.value
        if isinstance(value, ast.Call) and any(k.arg == "init" and getattr(k.value, "value", None) is False
                                               for k in value.keywords):
            continue
        names.append(item.target.id)
        if value is not None:
            defaulted.append(item.target.id)
    return names, defaulted


def _params(fn: ast.FunctionDef) -> tuple[list[str], list[str]]:
    """A function's positional parameters, and those of all its parameters with a default."""
    a = fn.args
    positional = [p.arg for p in a.posonlyargs + a.args]
    keyword = [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return positional, positional[len(positional) - len(a.defaults):] + keyword


def library_options(library: dict[str, str]) -> list[tuple[str, str, list[str], list[str], bool]]:
    """Every call target of ``library`` as ``(callee name, owner, positional
    names, defaulted names, is a config)``: the init fields of each frozen
    dataclass (a config) and the parameters of each class's ``__init__``,
    owned by "module.Class"; those of each public function or method, owned
    by "module.function" or "module.Class.method"."""
    out = []
    for module, source in sorted(library.items()):
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                out.append((node.name, f"{module}.{node.name}", *_params(node), False))
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            owner = f"{module}.{node.name}"
            if _frozen_dataclass(node):
                out.append((node.name, owner, *_init_fields(node), True))
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (item.name == "__init__" or not item.name.startswith("_")):
                    positional, defaulted = _params(item)
                    init = item.name == "__init__"
                    out.append((node.name if init else item.name, owner if init else f"{owner}.{item.name}",
                                positional[1:], defaulted, False))
    return out


def json_keys(value) -> set[str]:
    """Every key of the objects in a JSON value, at any depth."""
    if isinstance(value, dict):
        return set(value).union(*map(json_keys, value.values()))
    return set().union(*map(json_keys, value)) if isinstance(value, list) else set()


def unset_options(library: dict[str, str], callers: list[tuple[str | None, str]], workload_keys: set[str]) -> list[str]:
    """The options of ``library``, as "owner.name", that no source in ``callers`` sets.

    A call sets an option by keyword, or positionally, when its callee's name
    is the option's class, function or method (no types are inferred). A
    config field is also set by a ``replace(...)`` keyword of its name, by a
    keyword of ``cli._config(Class, ...)`` or a CLI option that ``_config``
    maps to it (``cli._FLAG_OF``), and by a key of ``workload_keys``."""
    options = library_options(library)
    by_callee = collections.defaultdict(list)
    for option in options:
        by_callee[option[0]].append(option)
    cli = ast.parse(library.get("cli", ""))
    flag_of = next((ast.literal_eval(node.value) for node in cli.body if isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None) == "_FLAG_OF"), {})
    flags = {node.value[2:].replace("-", "_") for node in ast.walk(cli)
             if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.startswith("--")}
    given, field_names = set(), set(workload_keys)
    for _, source in callers:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            callee = getattr(call.func, "id", getattr(call.func, "attr", None))
            keywords = [k.arg for k in call.keywords if k.arg]
            if callee == "replace":
                field_names.update(keywords)
            elif callee == "_config" and call.args:
                cls = getattr(call.args[0], "id", getattr(call.args[0], "attr", None))
                for _, owner, _, defaulted, _ in by_callee.get(cls, []):
                    given.update(f"{owner}.{name}" for name in keywords)
                    given.update(f"{owner}.{name}" for name in defaulted if flag_of.get(name, name) in flags)
            else:
                args = list(itertools.takewhile(lambda a: not isinstance(a, ast.Starred), call.args))
                for _, owner, positional, _, _ in by_callee.get(callee, []):
                    given.update(f"{owner}.{name}" for name in positional[: len(args)] + keywords)
    return [f"{owner}.{name}" for _, owner, _, defaulted, config in options for name in defaulted
            if f"{owner}.{name}" not in given and not (config and name in field_names)]


def workload_keys() -> set[str]:
    return json_keys(json.loads((ROOT / "perfbench" / "workloads.json").read_text(encoding="utf-8")))


def test_every_option_is_set_outside_the_tests():
    unset = [name for name in unset_options(*library_and_callers(), workload_keys()) if name not in UNSET_ALLOWED]
    assert unset == [], "no caller outside tests/ sets these: make them constants or remove them"


def test_allowed_unset_options_exist():
    library, _ = library_and_callers()
    options = {f"{owner}.{name}" for _, owner, _, defaulted, _ in library_options(library) for name in defaulted}
    assert set(UNSET_ALLOWED) <= options


def test_detects_an_unset_option():
    library = {
        "m": "@dataclass(frozen=True)\nclass C:\n    a: int\n    pos: int = 1\n    kw: int = 2\n"
             "    rep: int = 3\n    flag: int = 4\n    key: int = 5\n    unset: int = 6\n"
             "    ids: dict = field(init=False)\n\n"
             "@dataclass\nclass Plain:\n    free: int = 0\n\n"
             "class K:\n    def __init__(self, x, y=0):\n        pass\n\n"
             "    def run(self, z=0, *, w=1):\n        pass\n\n"
             "def f(x, y=0, *, z=1):\n    pass\n",
        "cli": "_FLAG_OF = {'flag': 'other'}\n\ndef _config(cls, opt):\n    pass\n\n"
               "def build(p):\n    p.add_argument('--other')\n    return _config(C, p)\n",
    }
    caller = "m.C(0, 1, kw=2)\nreplace(c, rep=3)\nK(1, y=2).run(3)\nm.f(0, 1, z=2)\n"
    # a field of a non-frozen dataclass or with init=False is no option
    assert unset_options(library, [("m", library["m"]), ("cli", library["cli"]), (None, caller)], {"key"}) == [
        "m.C.unset", "m.K.run.w"]
