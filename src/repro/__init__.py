"""repro — a reproduction of "GPU Concurrency: Weak Behaviours and
Programming Assumptions" (Alglave et al., ASPLOS 2015).

The package provides:

* :mod:`repro.api` — the unified execution front door: ``RunSpec``
  plans with content fingerprints, pluggable sim/model backends behind
  one request/result shape, and the ``Session`` engine with sharded
  parallel execution and fingerprint-keyed result caching;
* :mod:`repro.ptx` — the PTX instruction fragment of the paper;
* :mod:`repro.hierarchy` — scope trees and memory maps;
* :mod:`repro.litmus` — the GPU litmus format and the paper's tests;
* :mod:`repro.model` — the axiomatic framework, the ``.cat`` language and
  the PTX model (RMO per scope);
* :mod:`repro.diy` — systematic litmus test generation from relaxation
  cycles;
* :mod:`repro.sim` — an operational GPU simulator standing in for the
  paper's hardware;
* :mod:`repro.harness` — the 100k-iteration test runner with incantations
  (now thin wrappers over :mod:`repro.api`);
* :mod:`repro.compiler` — CUDA→PTX mapping, the SASS pipeline, optcheck
  and the AMD OpenCL compilers;
* :mod:`repro.apps` — the published GPU applications the paper studies.
"""

__version__ = "1.1.0"

from .api import CampaignResult, RunSpec, Session, SpecResult  # noqa: F401
from .litmus import LitmusTest, parse_litmus, write_litmus  # noqa: F401

__all__ = [
    "CampaignResult", "RunSpec", "Session", "SpecResult",
    "LitmusTest", "parse_litmus", "write_litmus", "__version__",
]
