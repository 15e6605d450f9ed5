"""rippletag: a transformation-rule tagger with an exception-tree model.

Train on a tagged corpus, get a tree of correction rules over a
first-guess tagger, apply it to new text.  See the README for the
command line; the main library entry points are re-exported here.
"""

from .corpus import (
    AlignmentError,
    CorpusParseError,
    TaggedCorpus,
    Token,
    read_raw,
    read_tagged_corpus,
    split_folds,
    write_tagged_corpus,
)
from .data import load_toy_corpus, toy_corpus_path
from .evaluation import (
    Metrics,
    cross_validate,
    level_curve,
    measure_tagging_speed,
    score_tagging,
)
from .initial_tagger import (
    DEFAULT_ENGLISH_RULES,
    InitialTagger,
    InitialTaggerOptions,
)
from .learner import Thresholds, TrainOptions, learn_tree, select_rule, train_model
from .lexicon import Lexicon, build_lexicon, parse_lexicon, serialize_lexicon
from .scrdr import (
    Node,
    Rule,
    TagObject,
    TreeFormatError,
    evaluate,
    insert_exception,
    make_tag_objects,
    new_root,
    parse_tree,
    serialize_tree,
    truncate,
)
from .tagger import Model, ModelFormatError, Tagger, load_model, save_model

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "CorpusParseError",
    "DEFAULT_ENGLISH_RULES",
    "InitialTagger",
    "InitialTaggerOptions",
    "Lexicon",
    "Metrics",
    "Model",
    "ModelFormatError",
    "Node",
    "Rule",
    "TagObject",
    "TaggedCorpus",
    "Tagger",
    "Thresholds",
    "Token",
    "TrainOptions",
    "TreeFormatError",
    "build_lexicon",
    "cross_validate",
    "evaluate",
    "insert_exception",
    "learn_tree",
    "level_curve",
    "load_model",
    "load_toy_corpus",
    "make_tag_objects",
    "measure_tagging_speed",
    "new_root",
    "parse_lexicon",
    "parse_tree",
    "read_raw",
    "read_tagged_corpus",
    "save_model",
    "score_tagging",
    "select_rule",
    "serialize_lexicon",
    "serialize_tree",
    "split_folds",
    "toy_corpus_path",
    "train_model",
    "truncate",
    "write_tagged_corpus",
]
