"""Keep BENCH_verify.json to the summary statistics: pytest-benchmark
writes every round's raw time under `--benchmark-json` (`stats.data`),
thousands of numbers per benchmark that no comparison reads."""


def pytest_benchmark_update_json(config, benchmarks, output_json):
    for bench in output_json["benchmarks"]:
        bench["stats"].pop("data", None)
