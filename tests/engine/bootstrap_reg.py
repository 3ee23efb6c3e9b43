"""Registration hook used by the ``REPRO_BOOTSTRAP`` tests.

Referenced as ``tests.engine.bootstrap_reg:register`` by the remote
bootstrap tests: workers run it at start-up (via the environment
hook), the test process runs it directly, and both sides then resolve
the same synthetic workload.
"""

from repro.workloads import register_synthetic

#: The workload the hook registers (tests unregister it afterwards).
SYNTH_NAME = "synth_bootstrap"


def register():
    """Register the test workload (idempotent via ``replace=True``)."""
    register_synthetic(
        SYNTH_NAME,
        heterogeneity=2.2,
        n_intervals=2,
        description="bootstrap-hook test workload",
        replace=True,
    )
