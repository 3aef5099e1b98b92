"""Weather-driven transmission line ratings and N-1 secure DC dispatch."""

from .network import (Branch, Bus, Generator, HourlySeries, Network, load_hourly_series,
                      load_network)
from .weather import WeatherGrid, WeatherSample, load_weather, nearest_cell
from .ratings import (AAR, DLR, SLR, RatingParams, RatingSeries, branch_multiplier,
                      build_rating_series, estimate_diameter, eta_temperature,
                      eta_wind, k_angle, sweep_parameters)
from .factors import SensitivityFactors, build_factors, compute_ptdf
from .dispatch import (DispatchProblem, DispatchResult, FlowRow, HourData, hour_data,
                       solve_copperplate, solve_penalized_dcopf)
from .scopf import (ScopfResult, post_contingency_flows, screen_violations,
                    solve_scdcopf, verify_n1)
from .pipeline import RunConfig, RunSummary, congestion_by_branch, emissions, run

__version__ = "0.1.0"
