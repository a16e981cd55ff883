"""The benchmark's workloads and the records they hand to the runner.

Each workload module provides:

- ``WHY``: why the workload exists, in one line.
- ``generate(rng, fixtures)``: the JSON-ready inputs, from the seeded ``rng``.
- ``load(uw, docs)``: the set-up, i.e. the library calls that turn the
  inputs into objects. ``setup_s`` times ``import ultraword`` plus this.
- ``operations(uw, docs, objs)``: the fixed operation list of one pass.
- ``cold(docs, workdir, fixtures)``: CLI commands run as subprocesses.
- ``rows(uw, docs, objs)``: ROADMAP item 2 table rows, run in the traced run.
- ``defects(uw, docs, objs)``: probes of known defects, run once per run.

Every operation carries a check that compares its output with a value the
benchmark computed without ultraword, or with a frozen output.
"""

from __future__ import annotations

from . import cli_fixtures, closure_sparse, signature_dense, words_exact

WORKLOADS = {
    "cli_fixtures": cli_fixtures,
    "closure_sparse": closure_sparse,
    "signature_dense": signature_dense,
    "words_exact": words_exact,
}
