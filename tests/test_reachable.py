"""Every function in src/ runs under some command.

The command lines below cover every subcommand, its text and JSON output,
every supported prime with and without the raw oracle, and an exit-2 path.
A function that none of them calls serves only the tests, and belongs in
tests/form_reference.py or tests/plane_reference.py.
"""

import contextlib
import importlib
import inspect
import io
import pkgutil
import sys

import quadric_moduli
import quadric_moduli.cli as cli

RES_OPEN_JSON = '{"positions": [[[0, 0], [0, 0]], [[-1, -2], [-1, -1]]]}'

#: (argv, exit code) of each command line run in-process.
COMMANDS = [
    (["betti"], 0),
    (["betti", "--json"], 0),
    (["hilbert", RES_OPEN_JSON], 0),
    (["hilbert", RES_OPEN_JSON, "--json"], 0),
    (["verify", "--primes", "2,3,5,7"], 0),
    (["report", "--primes", "2,3", "--full-oracle"], 0),
    (["verify-locus", "--prime", "2", "--full-oracle"], 0),
    (["verify-locus", "--prime", "7"], 0),
    (["verify", "--primes", "4"], 2),
]

EXEMPT = {
    # the console script itself, which ends the process: test_cli spawns it, and
    # CI runs it from the installed package
    "quadric_moduli.cli.entrypoint",
}
EXEMPT_MODULES = {
    # bench/tracer.py imports it; only the tests call it, over their own fields
    "quadric_moduli.linalg",
}


def package_modules():
    return [importlib.import_module(f"quadric_moduli.{info.name}")
            for info in pkgutil.iter_modules(quadric_moduli.__path__)]


def defined_functions(module):
    """(qualified name, function) of every non-dunder function, method and
    property getter that a module defines, cached functions unwrapped."""
    for name, value in vars(module).items():
        if inspect.isclass(value) and value.__module__ == module.__name__:
            members = [(f"{name}.{attr}", member) for attr, member in vars(value).items()]
        else:
            members = [(name, value)]
        for qualname, member in members:
            if qualname.rsplit(".", 1)[-1].startswith("__"):
                continue
            if isinstance(member, property):
                member = member.fget
            elif isinstance(member, (classmethod, staticmethod)):
                member = member.__func__
            member = inspect.unwrap(member) if callable(member) else member
            if inspect.isfunction(member) and member.__module__ == module.__name__:
                yield f"{module.__name__}.{qualname}", member


def test_every_function_in_src_runs_under_a_command():
    modules = package_modules()
    functions = dict(pair for module in modules for pair in defined_functions(module))
    assert EXEMPT <= set(functions) and EXEMPT_MODULES <= {module.__name__ for module in modules}
    for module in modules:  # a cache filled by an earlier test would skip its function
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    codes = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            for argv, _ in COMMANDS:
                codes.append(cli.main(argv))
        finally:
            sys.setprofile(None)
    assert codes == [code for _, code in COMMANDS]
    unreached = [name for name, function in functions.items()
                 if function.__code__ not in called and name not in EXEMPT
                 and function.__module__ not in EXEMPT_MODULES]
    assert unreached == []
