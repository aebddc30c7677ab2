"""Asynchronous irregular repetition random access: traffic simulation,
sliding-window SIC decoding and analytical error-floor prediction."""

from .channel import (
    InterferenceTimeline,
    avg_mutual_information,
    build_timeline,
    is_decodable,
)
from .errorfloor import (
    CollisionPattern,
    FloorParams,
    builtin_catalog,
    count_configurations,
    floor_params,
    load_catalog,
    plr_floor,
    plr_regular,
    plr_two_user,
    vp_count,
    vulnerable_fraction,
)
from .harness import (
    ExperimentConfig,
    PlrCurve,
    parse_config_file,
    predict,
    sweep,
    wilson_interval,
)
from .model import (
    DegreeDistribution,
    SystemConfig,
    TimeInterval,
    validate_config,
)
from .receiver import ReceiverState, run_receiver, sic_pass, slide
from .traffic import TrafficTrace, generate_trace, sample_degrees

__version__ = "0.1.0"
