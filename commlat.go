// Package commlat is a Go implementation of "Exploiting the Commutativity
// Lattice" (Kulkarni, Nguyen, Prountzos, Sui, Pingali — PLDI 2011): a
// framework for semantic conflict detection in speculative parallel
// programs.
//
// The core idea: for an abstract data type, a commutativity specification
// assigns each pair of methods a predicate over the two invocations'
// arguments, return values and abstract states; two concurrently executing
// transactions are serializable if all their cross-invocations satisfy
// these predicates. Specifications form a lattice ordered by implication,
// and a specification's position constrains how its conflict detector can
// be implemented:
//
//   - SIMPLE specifications (conjunctions of argument disequalities)
//     synthesize into abstract locking schemes — multi-mode locks with a
//     generated compatibility matrix (Synthesize/Reduce).
//   - ONLINE-CHECKABLE specifications run under forward gatekeepers,
//     which log primitive-function results per invocation
//     (NewForwardGatekeeper).
//   - Arbitrary specifications run under general gatekeepers, which roll
//     the structure back to evaluate conditions in earlier states
//     (NewGeneralGatekeeper).
//
// Moving down the lattice (StrengthenToSimple, (*Spec).PartitionSpec,
// Bottom) trades precision — and thus exposed parallelism — for cheaper
// detection; Implies/LE order the points; Meet/Join combine them.
//
// This package is the public facade over the implementation in
// internal/: the condition language and lattice (internal/core), the
// detector constructions (internal/abslock, internal/gatekeeper), the
// speculative executor (internal/engine), ready-made ADTs with validated
// specifications (internal/adt/...), the paper's three case-study
// applications (internal/apps/...), a ParaMeter-style parallelism
// profiler (internal/parameter) and the experiment harness
// (internal/bench, cmd/commlat).
package commlat

import (
	"commlat/internal/abslock"
	"commlat/internal/core"
	"commlat/internal/engine"
	"commlat/internal/gatekeeper"
)

// Core condition-language types (see internal/core for full docs).
type (
	// Value is the dynamic value domain of conditions.
	Value = core.Value
	// Term is a value-producing expression of the logic L1.
	Term = core.Term
	// Cond is a commutativity condition.
	Cond = core.Cond
	// Spec is a commutativity specification: a condition per method pair.
	Spec = core.Spec
	// ADTSig describes an abstract data type's methods.
	ADTSig = core.ADTSig
	// MethodSig describes one method.
	MethodSig = core.MethodSig
	// Invocation is a recorded method invocation.
	Invocation = core.Invocation
	// PairEnv is a condition's evaluation environment.
	PairEnv = core.PairEnv
	// Class ranks a condition: SIMPLE, ONLINE-CHECKABLE or GENERAL.
	Class = core.Class
	// Model is an executable reference used to validate specifications.
	Model = core.Model
	// Args is a flat argument vector (inline up to 4 values).
	Args = core.Vec
)

// Tagged-value constructors: V normalizes any Go value into the inline
// tagged representation; MakeArgs builds an argument vector.
var (
	V        = core.V
	MakeArgs = core.MakeVec
)

// Classification results.
const (
	ClassSimple  = core.ClassSimple
	ClassOnline  = core.ClassOnline
	ClassGeneral = core.ClassGeneral
)

// Term constructors.
var (
	Arg1 = core.Arg1
	Arg2 = core.Arg2
	Ret1 = core.Ret1
	Ret2 = core.Ret2
	Lit  = core.Lit
	Fn1  = core.Fn1
	Fn2  = core.Fn2
)

// Condition constructors and connectives.
var (
	True  = core.True
	False = core.False
	Not   = core.Not
	And   = core.And
	Or    = core.Or
	Eq    = core.Eq
	Ne    = core.Ne
	Lt    = core.Lt
	Gt    = core.Gt
	Le    = core.Le
	Ge    = core.Ge
)

// Specification and lattice operations.
var (
	// NewSpec creates an empty (all-false) specification.
	NewSpec = core.NewSpec
	// Bottom is the ⊥ specification: nothing commutes (a global lock).
	Bottom = core.Bottom
	// Classify returns a condition's class.
	Classify = core.Classify
	// Implies is the sound implication prover ordering lattice points.
	Implies = core.Implies
	// Eval evaluates a condition against a pair of invocations.
	Eval = core.Eval
	// CheckCondSound brute-force-validates a specification on a model.
	CheckCondSound = core.CheckCondSound
	// StrengthenToSimple derives the strongest SIMPLE specification
	// below a given one (§4.1's discipline, automated) — always
	// synthesizable into abstract locks.
	StrengthenToSimple = core.StrengthenToSimple
)

// Transactions and speculative execution (see internal/engine).
type (
	// Tx is a speculative transaction with an undo log.
	Tx = engine.Tx
	// Stats summarizes a speculative run.
	Stats = engine.Stats
	// Options configures a speculative run.
	Options = engine.Options
)

var (
	// NewTx creates a fresh transaction.
	NewTx = engine.NewTx
	// IsConflict reports whether an error denotes a speculation conflict.
	IsConflict = engine.IsConflict
)

// Abstract locking (§3.2).
type (
	// LockScheme is a synthesized abstract-locking conflict detector.
	LockScheme = abslock.Scheme
	// LockManager enforces a scheme at run time.
	LockManager = abslock.Manager
	// KeyFunc implements a pure key function for keyed (partition)
	// locks, returning the 64-bit identity of the key's image: equal
	// images must give equal words.
	KeyFunc = abslock.KeyFunc
)

var (
	// Synthesize builds the sound and complete locking scheme for a
	// SIMPLE specification (Theorem 1).
	Synthesize = abslock.Synthesize
	// NewLockManager runs a synthesized scheme.
	NewLockManager = abslock.NewManager
)

// Gatekeeping (§3.3).
type (
	// ForwardGatekeeper implements ONLINE-CHECKABLE specifications.
	ForwardGatekeeper = gatekeeper.Forward
	// GeneralGatekeeper implements arbitrary L1 specifications.
	GeneralGatekeeper = gatekeeper.General
	// Effect is a gatekept invocation's result, inverse and (under a
	// general gatekeeper) exact redo.
	Effect = gatekeeper.Effect
)

var (
	// NewForwardGatekeeper builds a forward gatekeeper for a spec.
	NewForwardGatekeeper = gatekeeper.NewForward
	// NewGeneralGatekeeper builds a general gatekeeper for a spec.
	NewGeneralGatekeeper = gatekeeper.NewGeneral
)
