"""Holomorphic-embedding AC load flow with series VSC FACTS devices."""

from importlib import resources

from .core import ffhe_solve
from .devices import (ControlTarget, Mode, SeriesDevice, SsscDevice,
                      branch_outputs, load_devices)
from .network import (Branch, Bus, BusKind, Network, ParseError,
                      TopologyError, build_admittance_matrix,
                      insert_series_device, parse_case)
from .newton import ConvergenceError, SolveResult, nr_solve, warm_start
from .report import (StudyError, StudyOptions, StudyReport, run_study)
from .system import System, build_system, jacobian, residual

__version__ = "0.1.0"


def load_bundled_case(name: str = "case118") -> Network:
    """Parse one of the case files shipped with the package."""
    text = resources.files("ffheflow.data").joinpath(f"{name}.m").read_text()
    return parse_case(text, name=name)
