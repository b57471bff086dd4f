"""repro: a workflow environment for advanced cyberinfrastructure platforms.

A from-scratch reproduction of the system described in R. M. Badia et al.,
*Workflow environments for advanced cyberinfrastructure platforms* (ICDCS
2019): a PyCOMPSs/COMPSs-like task-based programming model with an
intelligent runtime, resource constraints, persistent-storage integration
(Hecuba/dataClay analogues), fog-to-cloud agents, and a dislib-like
distributed ML library — all executable for real on a thread pool or at
scale on a deterministic discrete-event simulation of the computing
continuum.

``import repro`` loads nothing until a name is used: every package's
``__init__`` is one ``{name: submodule}`` table handed to
:func:`_export_lazily`, so ``from repro import task`` loads the task model
but not the runtime, and a simulated run never loads the real runtime at
all.  A subpackage becomes an attribute of ``repro`` once it is imported.

Quickstart::

    from repro import task, constraint, compss_wait_on, Runtime

    @constraint(cores=1)
    @task(returns=1)
    def square(x):
        return x * x

    with Runtime():
        partial = [square(i) for i in range(10)]
        print(sum(compss_wait_on(partial)))
"""

import importlib


def _export_lazily(namespace, table):
    """PEP 562 exports for the subpackage whose globals are ``namespace``.

    ``table`` maps each public name to the submodule that defines it, in
    ``__all__`` order.  A name's submodule is imported on first access and
    the value is then bound in the package, so later lookups are plain
    attribute reads.  A name that is also its own submodule's name is bound
    now: importing that submodule later would otherwise rebind it to the
    module.
    """
    package = namespace["__name__"]

    def __getattr__(name):
        if name not in table:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{table[name]}")
        value = namespace[name] = getattr(module, name)
        return value

    def __dir__():
        return sorted(set(namespace) | set(table))

    namespace.update(__all__=list(table), __getattr__=__getattr__, __dir__=__dir__)
    for name, submodule in table.items():
        if name == submodule:
            __getattr__(name)


_export_lazily(
    globals(),
    {
        "IN": "core",
        "OUT": "core",
        "INOUT": "core",
        "FILE_IN": "core",
        "FILE_OUT": "core",
        "FILE_INOUT": "core",
        "Direction": "core",
        "Parameter": "core",
        "Future": "core",
        "ReproError": "core",
        "TaskFailedError": "core",
        "RuntimeNotStartedError": "core",
        "ConstraintUnsatisfiableError": "core",
        "ResourceConstraints": "core",
        "constraint": "core",
        "task": "core",
        "Runtime": "core",
        "compss_wait_on": "core",
        "compss_barrier": "core",
        "compss_open": "core",
        "compss_delete_object": "core",
        "start_runtime": "core",
        "stop_runtime": "core",
        "get_runtime": "core",
    },
)

__version__ = "1.0.0"
__all__.append("__version__")  # _export_lazily set __all__ from the table
