"""E5 — §IV-A: stub generation "directly to bytes".

"WSPeer actually extends the stub generation capabilities of Axis by
generating stubs directly to bytes, bypassing source generation and
compilation."

Experiment: build client stubs for WSDLs of m operations via both
strategies — :class:`DynamicStubBuilder` (the WSPeer way: classes
assembled in memory) and :class:`SourceCodegenStubBuilder` (the Axis
way: render source text, compile, exec) — and compare wall-clock build
time.  Expected shape: both linear in m; the dynamic path faster by a
constant factor because no text rendering/parsing/compilation happens.
"""

import timeit

from _workloads import print_table

from repro.caching import clear_all_caches
from repro.soap import DynamicStubBuilder, SourceCodegenStubBuilder
from repro.soap.stubs import OperationSpec, StubSpec

OP_COUNTS = [1, 4, 16, 64]


def make_spec(m: int) -> StubSpec:
    return StubSpec(
        "Generated",
        tuple(
            OperationSpec(f"operation{i}", (f"arg{i}a", f"arg{i}b"))
            for i in range(m)
        ),
    )


def measure(builder, spec: StubSpec, repeats: int = 200) -> float:
    """Mean seconds per build_class call.

    Every iteration starts from a cold stub-class cache: E5 measures
    *generation* strategies, and a cache hit would measure a dict lookup
    instead.
    """
    def cold_build():
        clear_all_caches()
        builder.build_class(spec)

    return timeit.timeit(cold_build, number=repeats) / repeats


def run_e5_experiment(op_counts=OP_COUNTS):
    dynamic, codegen = DynamicStubBuilder(), SourceCodegenStubBuilder()
    rows = []
    ratios = []
    for m in op_counts:
        spec = make_spec(m)
        t_dynamic = measure(dynamic, spec)
        t_codegen = measure(codegen, spec)
        ratios.append(t_codegen / t_dynamic)
        rows.append(
            [
                m,
                f"{t_dynamic * 1e6:.1f}us",
                f"{t_codegen * 1e6:.1f}us",
                f"{t_codegen / t_dynamic:.1f}x",
            ]
        )
    print_table(
        "E5  stub build time: direct-to-bytes vs source codegen",
        ["operations", "dynamic (WSPeer)", "codegen (Axis-style)", "codegen/dynamic"],
        rows,
        note="shape: both linear in operation count; the direct path wins "
        "by a constant factor (no source rendering, parsing or compiling)",
    )
    return ratios


def test_e5_dynamic_beats_codegen():
    ratios = run_e5_experiment([4, 16])
    assert all(r > 1.5 for r in ratios), ratios


def test_e5_both_produce_equivalent_stubs():
    spec = make_spec(8)
    calls_a, calls_b = [], []
    a = DynamicStubBuilder().build(spec, lambda op, args: calls_a.append((op, args)))
    b = SourceCodegenStubBuilder().build(spec, lambda op, args: calls_b.append((op, args)))
    a.operation3("x", "y")
    b.operation3("x", "y")
    assert calls_a == calls_b


def test_e5_scaling_is_linear_not_quadratic():
    dynamic = DynamicStubBuilder()
    t_small = measure(dynamic, make_spec(8), repeats=100)
    t_large = measure(dynamic, make_spec(64), repeats=100)
    # 8x the operations should cost well under 64x the time
    assert t_large < t_small * 30


def test_bench_dynamic_stub_build(benchmark):
    spec = make_spec(16)
    builder = DynamicStubBuilder()
    benchmark(lambda: builder.build_class(spec))


def test_bench_codegen_stub_build(benchmark):
    spec = make_spec(16)
    builder = SourceCodegenStubBuilder()
    benchmark(lambda: builder.build_class(spec))


if __name__ == "__main__":
    run_e5_experiment()
