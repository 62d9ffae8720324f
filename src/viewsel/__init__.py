"""Camera view selection for scene-level ground-plane crowd counting and
localization, with a pluggable predictor and a simulation harness."""

from .crowd import (CrowdFrame, DensityMap, Person, cover_rate,
                    generate_crowd_trace, rasterize_density, visible_persons)
from .evaluate import EvalReport, evaluate
from .geometry import (CameraPose, DegenerateAxisError, FovFootprint,
                       GroundGrid, Scene, combined_visibility,
                       ground_axis_and_position, project_footprint)
from .metrics import (CountingReport, LocalizationReport, counting_metrics,
                      extract_peaks, localization_metrics, match_points)
from .predictor import (CalibrationState, PredictorConfig, calibrate,
                        noisy_predict, oracle_predict)
from .pseudolabels import (PseudoPair, make_modeltrain_pair,
                           make_training_batch, make_viewsel_pair)
from .scoring import (ScoreBreakdown, binarize_density, inverse_distance_field,
                      score, score_density, score_geometric, score_mask,
                      score_scene_coverage, score_view_diversity)
from .selection import (LabeledDataset, SelectionConfig, SelectionState,
                        add_view, brute_force_best, random_select, run_avs,
                        run_ivs, select_first_view, select_frames,
                        train_after_selection)
from .synth import generate_scene

__version__ = "0.1.0"
