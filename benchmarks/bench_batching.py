"""Extension — shared-scan batching of concurrent queries.

Front-ends serve many searches at once; since Algorithm 1's filter is a
sequential scan, a batch (``IVAEngine.search_batch``) can share it.
Expected shape: identical answers, with batch I/O well below the sum of
the individual runs.
"""

from repro.bench import DEFAULTS, emit_table

BATCH_SIZES = (1, 4, 8)


def test_query_batching(env, benchmark):
    def compute():
        queries = list(env.query_set(DEFAULTS.values_per_query).measured[:8])
        single_engine = env.iva_engine()
        batch_engine = env.iva_engine(kernel="v3")
        out = {}
        for size in BATCH_SIZES:
            chunk = queries[:size]
            disk = env.disk
            disk.drop_cache()
            before = disk.stats.io_time_ms
            single_results = [single_engine.search(q, k=DEFAULTS.k) for q in chunk]
            single_io = disk.stats.io_time_ms - before
            disk.drop_cache()
            before = disk.stats.io_time_ms
            batch_results = batch_engine.search_batch(chunk, k=DEFAULTS.k)
            batch_io = disk.stats.io_time_ms - before
            for a, b in zip(single_results, batch_results):
                assert [r.distance for r in a.results] == [
                    r.distance for r in b.results
                ]
            out[size] = (single_io, batch_io)
        return out

    sweep = env.cached("batching", compute)
    rows = [
        [
            size,
            round(sweep[size][0], 1),
            round(sweep[size][1], 1),
            f"{sweep[size][0] / max(sweep[size][1], 1e-9):.2f}x",
        ]
        for size in BATCH_SIZES
    ]
    emit_table(
        "batching",
        "Extension — one-at-a-time vs shared-scan batch I/O (ms)",
        ["batch size", "individual io", "batched io", "saving"],
        rows,
    )
    # Shape: batching saves I/O, and the saving grows with batch size.
    assert sweep[BATCH_SIZES[-1]][1] < sweep[BATCH_SIZES[-1]][0]

    queries = list(env.query_set(DEFAULTS.values_per_query).measured[:4])
    engine = env.iva_engine(kernel="v3")
    benchmark.pedantic(
        lambda: engine.search_batch(queries, k=DEFAULTS.k), rounds=2, iterations=1
    )
