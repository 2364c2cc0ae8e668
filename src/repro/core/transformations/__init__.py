"""The transformation library (~24 types, mirroring spirv-fuzz's design)."""

from repro.core.transformations.blocks import (
    AddDeadBlock,
    MoveBlockDown,
    ObfuscateBranch,
    PermutePhiOperands,
    PropagateInstructionUp,
    ReplaceBranchWithKill,
    SplitBlock,
    WrapRegionInSelection,
)
from repro.core.transformations.functions import (
    AddFunction,
    AddParameter,
    FunctionCall,
    InlineFunction,
    PermuteFunctionParameters,
    ToggleFunctionControl,
)
from repro.core.transformations.insertion import (
    InsertBefore,
    block_insertion_points,
    insert_instruction,
)
from repro.core.transformations.memory import AddAccessChain, AddLoad, AddStore
from repro.core.transformations.outline import OutlineFunction
from repro.core.transformations.obfuscate import (
    ObfuscateConstant,
    ReplaceConstantWithUniform,
    ReplaceIrrelevantId,
    SwapCommutableOperands,
    WrapInSelect,
)
from repro.core.transformations.support import (
    AddConstant,
    AddType,
    AddUniform,
    AddVariable,
)
from repro.core.transformations.synonyms import (
    AddCompositeConstruct,
    AddCompositeExtract,
    AddCompositeInsert,
    AddCopyObject,
    AddEquationInstruction,
    ReplaceIdWithSynonym,
)

__all__ = [
    "AddAccessChain",
    "AddCompositeConstruct",
    "AddCompositeExtract",
    "AddCompositeInsert",
    "AddConstant",
    "AddCopyObject",
    "AddDeadBlock",
    "AddEquationInstruction",
    "AddFunction",
    "AddLoad",
    "AddParameter",
    "AddStore",
    "AddType",
    "AddUniform",
    "AddVariable",
    "FunctionCall",
    "InlineFunction",
    "InsertBefore",
    "MoveBlockDown",
    "ObfuscateBranch",
    "ObfuscateConstant",
    "OutlineFunction",
    "PermuteFunctionParameters",
    "PermutePhiOperands",
    "PropagateInstructionUp",
    "ReplaceBranchWithKill",
    "ReplaceConstantWithUniform",
    "ReplaceIdWithSynonym",
    "ReplaceIrrelevantId",
    "SplitBlock",
    "SwapCommutableOperands",
    "ToggleFunctionControl",
    "WrapInSelect",
    "WrapRegionInSelection",
    "block_insertion_points",
    "insert_instruction",
]
