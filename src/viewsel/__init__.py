"""Camera view selection for scene-level ground-plane crowd counting and
localization, with a pluggable predictor and a simulation harness."""

from .crowd import (CrowdFrame, DensityMap, Person, accumulate_density,
                    check_trace, cover_rate, generate_crowd_trace,
                    kernel_table, rasterize_density)
from .evaluate import EvalReport
from .geometry import (CameraPose, FovFootprint, GroundGrid, Scene,
                       project_footprint)
from .metrics import (CountingReport, LocalizationReport, counting_metrics,
                      extract_peaks, localization_metrics, match_points)
from .predictor import (CalibrationState, PredictorConfig, calibrate,
                        noisy_draw, noisy_predict, oracle_predict,
                        training_mae)
from .scoring import ScoreBreakdown, binarize_density, score_round
from .selection import (LabeledDataset, PseudoPair, SelectionConfig,
                        SelectionState, add_view, check_run,
                        make_pseudo_pair, random_select, run_avs, run_ivs,
                        run_selection, select_first_view, select_frames,
                        train_after_selection)
from .synth import generate_scene

__version__ = "0.1.0"
