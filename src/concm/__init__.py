"""Few-shot class-incremental learning on pre-extracted features.

Pipeline: memory-aware prototype calibration, Gaussian prototype
augmentation, dynamic simplex-ETF target structures aligned to the current
feature layout, projector training with matching + contrastive losses, and
nearest-class-mean evaluation with the full incremental metric suite.
"""

from .attributes import (AssociationMatrix, AttributePool, AttributeTable,
                         SemanticKnowledge, attribute_visual_prototypes,
                         build_knowledge, load_attribute_table,
                         load_semantic_embeddings)
from .augment import (PrototypeRepository, class_statistics, epoch_labels,
                      novel_covariance, sample_augmented, shot_variance,
                      transfer_weights)
from .autodiff import Tape, grad_check
from .calibration import (CalibrationParams, Prototype, blend, calibrate,
                          init_calibration_params, meta_train)
from .data import FeatureSet, Manifest, load_features, load_manifest, save_features
from .metrics import (ClassSums, RunReport, SessionRecord, balanced_error_rate,
                      format_report_table, harmonic_mean, ncm_classify,
                      report_from_json, report_to_csv, report_to_json,
                      run_metrics, session_metrics, similarity_stats)
from .projector import (ProjectorParams, build_contrastive_loss,
                        build_matching_loss, init_projector_params, project,
                        train_projector)
from .session import (STRATEGIES, PipelineInputs, RunResult, SessionConfig,
                      SessionState, SessionTrace, evaluate_session, load_inputs,
                      run_base_session, run_from_files, run_incremental_session,
                      run_pipeline, session_record)
from .structure import (InitialStructure, StructureMatrix,
                        geometric_optimality_deviation, initial_structure,
                        nearest_optimal_structure, random_optimal_structure,
                        structure_matching_rate, svd_compact)
from .synth import GenConfig, GeneratedBenchmark, generate_benchmark, write_benchmark

__version__ = "0.1.0"
