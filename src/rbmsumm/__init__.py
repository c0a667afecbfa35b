"""Extractive single-document summarization.

Pipeline: rule-based preprocessing, nine per-sentence features, a
per-document RBM that enhances the feature matrix, score-ranked
selection with Jaccard-driven picks, and precision/recall/F evaluation
against reference extracts.
"""

from .assets import Lexicons, load_lexicons
from .document import ProcessedDocument, RawDocument, Sentence, Token
from .errors import (
    DegenerateDocument,
    DimensionMismatch,
    EmptyDocument,
    EmptyReference,
    EmptySystemSummary,
    MissingReference,
    NonFiniteParameter,
    SummarizerError,
)
from .evaluation import (
    CorpusEvaluation,
    EvalScores,
    ModeComparison,
    ReferenceSummary,
    compare_modes,
    evaluate_corpus,
    f_measure,
    load_corpus,
    precision,
    recall,
)
from .features import (
    FEATURE_NAMES,
    FeatureConfig,
    SentenceFeatureMatrix,
    build_feature_matrix,
    normalize_columns,
)
from .preprocess import preprocess
from .rbm import Rbm, TrainConfig, enhance, stack_enhance, train
from .summarizer import (
    PipelineResult,
    RankedSentence,
    Summary,
    SummaryConfig,
    run_pipeline,
    summarize,
)

__version__ = "0.1.0"
