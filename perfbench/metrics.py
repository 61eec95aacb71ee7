"""Names, units and directions of the metrics the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same metrics; a test
keeps the two in step.  Standard library only: ``run.py`` reads this
before it pins the BLAS threads and imports numpy.
"""

WORKLOADS = ("valley", "spd-contrastive", "kernels")

# A step is one outer iteration on the solver workloads and one round of
# kernel calls on ``kernels``.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("cpu_ms_per_step", "ms", "lower"),
    ("step_ms_p50", "ms", "lower"),
    ("ok_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

TRACED_GEOMETRIES = ("hyperbolic2", "spd5")
GEOMETRY_OPS = ("exp", "log", "dist", "inner", "busemann", "busemann_grad",
                "linear_model_grad", "check_point", "check_tangent")
NUMPY_LAPACK_OPS = ("eigh", "eigvalsh", "cholesky", "solve")
LAPACK_OPS = NUMPY_LAPACK_OPS + ("dgejsv",)
PROBLEM_FNS = ("g", "h", "g_rgrad", "h_subgrad")

KERNEL_GEOMETRIES = ("hyperbolic2", "spd5", "spd20", "dikin3")
KERNEL_OPS = ("exp", "log", "dist", "inner", "busemann", "busemann_grad",
              "linear_model_grad")
ORACLE = "busemann_numeric"
ORACLE_GEOMETRIES = ("hyperbolic2", "spd5")
PHASES = ("reused", "fresh")


def kernel_ops(geometry):
    return KERNEL_OPS + ((ORACLE,) if geometry in ORACLE_GEOMETRIES else ())


def _per_layer():
    out = []
    for geom in TRACED_GEOMETRIES:
        for op in GEOMETRY_OPS:
            out += [(f"geometry.{geom}.{op}.calls", "count", "lower"),
                    (f"geometry.{geom}.{op}.self_s", "s", "lower")]
    out += [(f"lapack.{op}.calls", "count", "lower") for op in LAPACK_OPS]
    out.append(("lapack.eigh.per_inner_iter", "calls/iter", "lower"))
    for fn in PROBLEM_FNS:
        out += [(f"problems.{fn}.calls", "count", "lower"),
                (f"problems.{fn}.self_s", "s", "lower")]
    for span in ("subproblem_build", "inner_solve"):
        out += [(f"dc.{span}.calls", "count", "lower"),
                (f"dc.{span}.self_s", "s", "lower")]
    out += [("dc.ls_trials", "count", "lower"),
            ("dc.ls_accept_ratio", "ratio", "higher"),
            ("dc.outer_iters", "count", "lower"),
            ("dc.inner_iters", "count", "lower"),
            ("dc.solve_ms_p50", "ms", "lower"),
            ("analysis.busemann_numeric.calls", "count", "lower"),
            ("analysis.busemann_numeric.us_per_call", "us", "lower"),
            ("analysis.oracle_converged_ratio", "ratio", "higher")]
    for geom in KERNEL_GEOMETRIES:
        for op in kernel_ops(geom):
            out += [(f"kernels.{geom}.{op}.{phase}.us_per_call", "us",
                     "lower") for phase in PHASES]
    out += [("bench.self_s", "s", "lower"),
            ("trace.overhead_ratio", "ratio", "lower")]
    return tuple(out)


PER_LAYER = _per_layer()
