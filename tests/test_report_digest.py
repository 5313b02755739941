import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import report_digest  # noqa: E402

from bellmax import seesaw  # noqa: E402


def test_digests_do_not_depend_on_the_working_directory(tmp_path):
    # Inputs go under a relative state dir, so the manifests name no temporary
    # path: two runs in different directories hash the same report bytes, and
    # each run removes the inputs it wrote.
    runs = []
    for sub in ("first", "second"):
        (tmp_path / sub).mkdir()
        runs.append(report_digest.digests(["density-oracle"], 1, [1], 1, str(tmp_path / sub)))
        assert not any((tmp_path / sub / report_digest.STATE_DIR).iterdir())
    assert runs[0] == runs[1]
    assert set(runs[0]) == {"density-oracle", "optimize", "optimize-budgets", "gamma",
                            "verify-seeds"}
    other = report_digest.digests(["density-oracle"], 1, [7], 0, str(tmp_path / "first"))
    assert other["density-oracle"] != runs[0]["density-oracle"]
    assert other["optimize"] != runs[0]["optimize"]


def test_optimize_jobs_cover_every_density_input_both_ways():
    # One optimize job per density-oracle input, free and with --constrain-y, whose
    # inputs, and so whose list, change with the seed.
    lists = [report_digest.job_lists(["density-oracle"], 1, [seed], 0) for seed in (1, 7)]
    for jobs in lists:
        density, optimize = jobs["density-oracle"], jobs["optimize"]
        assert len(optimize) == 2 * len(density)
        for job, free, constrained in zip(density, optimize[::2], optimize[1::2]):
            assert free.argv[:3] == ("optimize", "--state", *job.files)
            assert constrained.argv == free.argv + ("--constrain-y",)
            assert free.files == job.files
    assert lists[0]["optimize"] != lists[1]["optimize"]


def test_optimize_budget_jobs_cover_each_cap_on_the_first_density_block():
    # At each --max-iters of BUDGETS, the optimize jobs of the seed-1 block-0 density inputs,
    # free and with --constrain-y, whatever seeds and blocks the other lists use.
    first = report_digest.optimize_jobs(
        report_digest.workloads.block_jobs("density-oracle", 1, 0, report_digest.STATE_DIR))
    for seeds, blocks in (([1], 1), ([7], 2)):
        budgets = report_digest.job_lists(["density-oracle"], blocks, seeds, 0)["optimize-budgets"]
        assert len(budgets) == len(report_digest.BUDGETS) * len(first)
        for index, job in enumerate(budgets):
            cap, base = report_digest.BUDGETS[index // len(first)], first[index % len(first)]
            at = base.argv.index("--no-timestamp")
            assert job.argv == base.argv[:at] + ("--max-iters", str(cap)) + base.argv[at:]
            assert job.files == base.files
    # The see-saw cap with a Newton budget of 0 and of 1.
    assert {seesaw._SEESAW_ITERS, seesaw._SEESAW_ITERS + 1} <= set(report_digest.BUDGETS)


def test_gamma_jobs_cover_every_dimension_index_and_axis():
    # gamma is the one subcommand no workload runs: its list holds every
    # (N, k, axis) of N 2-9 once, in order, whatever the workloads asked for.
    jobs = report_digest.job_lists([], 1, [1], 0)["gamma"]
    seen = [(int(job.argv[2]), int(job.argv[4]), job.argv[6]) for job in jobs]
    assert seen == [(n, k, axis) for n in range(2, 10) for k in range(1, n + 1)
                    for axis in ("x", "y", "z", "pi")]
    assert all(job.argv[0] == "gamma" and job.argv[-1] == "--no-timestamp" for job in jobs)
