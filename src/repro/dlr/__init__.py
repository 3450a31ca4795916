"""DLR substrate: multi-table inference workloads and model cost models."""

from repro.dlr.models import DCN, DLRM, DlrModelSpec, dense_time_per_iteration, model_by_name
from repro.dlr.nn import DcnNet, DlrmNet, serve_batch
from repro.dlr.workload import DlrWorkload

__all__ = [
    "DcnNet",
    "DlrmNet",
    "serve_batch",
    "DCN",
    "DLRM",
    "DlrModelSpec",
    "dense_time_per_iteration",
    "model_by_name",
    "DlrWorkload",
]
