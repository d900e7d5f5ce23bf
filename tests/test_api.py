"""The public API against hostile arguments: every failure is the package's own error."""

import inspect
import signal
from types import SimpleNamespace

import pytest

import graphprod
from graphprod import (
    GraphProdError,
    IsomorphismWitness,
    PreconditionError,
    ProductKind,
    disjoint_union,
    elimination_oracle,
    factor_search,
    kronecker,
    pad_to_class_g,
    write_edge_list,
)
from graphprod.catalog import C3, C5, C5_LOOP, K2, P4

UNION = disjoint_union(C5, C5)
WITNESS = factor_search(UNION, 2, 5)

# Valid positional arguments for every public function; "g.el" exists in the
# test's working directory.  A function missing here fails its test.
# witness_is_valid gets a real witness, so a hostile graph is reached.
VALID = {
    "adjacency_matrix": (C5,),
    "are_isomorphic": (C5, C5),
    "bipartition": (C5,),
    "cartesian_product": (K2, C3),
    "class_g_check": (C5,),
    "class_g_isomorphism": (C5_LOOP, C5_LOOP, elimination_oracle),
    "connected_components": (UNION,),
    "direct_product": (K2, C3),
    "disjoint_union": (K2, C3),
    "div2div3_offset": (7,),
    "elimination_oracle": (disjoint_union(C5_LOOP, C5_LOOP),),
    "factor_search": (UNION, 2, 5),
    "factorization_from_isomorphism": (C5, C5, IsomorphismWitness(tuple(range(5)))),
    "find_factorization": (UNION,),
    "format_edge_list": (C3,),
    "graph_from_adjacency": ([[0, 1], [1, 0]],),
    "graph_isomorphism_via_compositeness": (P4, P4, elimination_oracle),
    "induced_subgraph": (C5, [0, 1]),
    "is_bipartite": (C5,),
    "is_connected": (C5,),
    "is_isomorphism": (C5, C5, (0, 1, 2, 3, 4)),
    "is_prime_direct": (C5,),
    "isomorphism_from_union_factorization": (C5, C5),
    "kronecker": ([[1, 0], [0, 1]], [[0, 1], [1, 0]]),
    "lexicographic_product": (K2, C3),
    "pad_to_class_g": (P4,),
    "padding_result_to_json": (pad_to_class_g(P4),),
    "parse_edge_list": ("2 1\n0 1\n",),
    "prime_in_bertrand_range": (5,),
    "product": (ProductKind.STRONG, K2, C3),
    "read_edge_list": ("g.el",),
    "relabel": (C5, [1, 0, 2, 3, 4]),
    "search_oracle": (UNION,),
    "strong_product": (K2, C3),
    "two_block_survivors": (C5_LOOP, C5_LOOP),
    "union_compositeness_by_elimination": (C5_LOOP, C5_LOOP),
    "verify_kronecker_identity": (K2, C3),
    "witness_is_valid": (UNION, WITNESS),
    "witness_to_json": (WITNESS,),
    "write_edge_list": (C3, "out.el"),
}

HOSTILE = (
    None,
    (3, [(0, 1), (1, 2), (0, 2)]),
    SimpleNamespace(node_count=3, edges=[(0, 5)]),
    "bad",
    -1,
    2.5,
    True,
    10**30,
)

# Documented exceptions that are not GraphProdErrors.
ALSO_ALLOWED = {
    "adjacency_matrix": ModuleNotFoundError,  # numpy is an optional extra
    "graph_from_adjacency": ModuleNotFoundError,
    "kronecker": ModuleNotFoundError,
    "read_edge_list": OSError,  # a str path may name no file
    "write_edge_list": OSError,
}

FUNCTIONS = [name for name in graphprod.__all__ if inspect.isfunction(getattr(graphprod, name))]


class CallTimedOut(BaseException):
    """Raised by the alarm; a BaseException, so that no ``except Exception`` swallows it."""


def _time_out(signum, frame):
    raise CallTimedOut


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
@pytest.mark.parametrize("name", FUNCTIONS)
def test_public_function_raises_only_its_own_errors(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a str path creates or names a file here
    write_edge_list(C3, "g.el")
    fn = getattr(graphprod, name)
    valid = VALID[name]
    params = [
        p for p in inspect.signature(fn).parameters.values()
        if p.kind is p.POSITIONAL_OR_KEYWORD
    ]
    assert len(params) == len(valid)
    allowed = (GraphProdError, ALSO_ALLOWED.get(name, GraphProdError))
    previous = signal.signal(signal.SIGALRM, _time_out)
    faults = []
    try:
        for i, param in enumerate(params):
            for bad in HOSTILE:
                # open() takes an int, a bool included, as a file descriptor
                if param.name == "path" and isinstance(bad, int):
                    continue
                args = valid[:i] + (bad,) + valid[i + 1:]
                signal.setitimer(signal.ITIMER_REAL, 10)
                try:
                    fn(*args)
                except allowed:
                    pass
                except CallTimedOut:
                    faults.append(f"{param.name}={bad!r}: no answer in 10 s")
                except Exception as exc:
                    faults.append(f"{param.name}={bad!r}: {type(exc).__name__}: {exc}")
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not faults, f"{name}: " + "; ".join(faults)


def test_write_edge_list_keeps_an_existing_file_when_it_fails(tmp_path):
    path = tmp_path / "keep.el"
    path.write_bytes(b"2 1\n0 1\n")
    for g in (None, (3, [(0, 1)]), SimpleNamespace(node_count=2, edges=[(0, 1)])):
        with pytest.raises(PreconditionError, match="^write_edge_list operands must be Graphs$"):
            write_edge_list(g, path)
        assert path.read_bytes() == b"2 1\n0 1\n"


def test_kronecker_refuses_a_ragged_operand():
    pytest.importorskip("numpy")
    for a, b in (([[1, 0], [0]], [[1]]), ([[1]], [[1, 0], [0]])):
        with pytest.raises(PreconditionError, match="^kronecker operands must not be ragged$"):
            kronecker(a, b)
