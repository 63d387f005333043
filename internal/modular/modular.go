// Package modular assembles the modular atomic broadcast implementation
// (paper §3, Fig. 1 left): the ABcast, Consensus and RBcast microprotocols
// composed as black boxes in the internal/stack framework.
//
// Compare with internal/monolithic, which implements the same algorithms
// merged into a single module (paper §4, Fig. 1 right).
package modular

import (
	"modab/internal/abcast"
	"modab/internal/consensus"
	"modab/internal/engine"
	"modab/internal/member"
	"modab/internal/rbcast"
	"modab/internal/stack"
	"modab/internal/types"
)

// Engine is the modular atomic broadcast engine.
type Engine struct {
	env engine.Env
	stk *stack.Stack
	ab  *abcast.Layer
}

var _ engine.Engine = (*Engine)(nil)

// New builds the modular stack for the given environment. The
// configuration must be valid (engine.Config.Validate).
func New(env engine.Env, cfg engine.Config) *Engine {
	mode := rbcast.Majority
	if cfg.ClassicRBcast {
		mode = rbcast.Classic
	}
	// A restarted process broadcasts under a fresh incarnation so its
	// rbcast numbering (not persisted) is not swallowed as duplicates of
	// its pre-crash broadcasts by the surviving peers.
	var incarnation uint64
	if cfg.Recovered != nil {
		incarnation = cfg.Recovered.Boots
	}
	rb := rbcast.New(stack.TagConsensus, mode, incarnation)
	cs := consensus.New(stack.TagABcast, cfg.ResendEvery, cfg.DecisionHorizon)
	ab := abcast.New(cfg)
	if cfg.InitialView != nil {
		// A joiner's first view is the config it was admitted into, not
		// history's beginning: consensus governs instances by it from the
		// start (rbcast learns it from the tail's ReplayViews).
		cs.SeedView(*cfg.InitialView)
	}
	return &Engine{
		env: env,
		stk: stack.New(env, rb, cs, ab),
		ab:  ab,
	}
}

// Start implements engine.Engine.
func (e *Engine) Start() { e.stk.Start() }

// HandleMessage implements engine.Engine.
func (e *Engine) HandleMessage(from types.ProcessID, data []byte) error {
	return e.stk.Receive(from, data)
}

// HandleTimer implements engine.Engine.
func (e *Engine) HandleTimer(id engine.TimerID) { e.stk.HandleTimer(id) }

// Abcast implements engine.Engine.
func (e *Engine) Abcast(body []byte) (types.MsgID, error) { return e.ab.Abcast(body) }

// Suspect implements engine.Engine.
func (e *Engine) Suspect(p types.ProcessID, suspected bool) { e.stk.Suspect(p, suspected) }

// Pending implements engine.Engine.
func (e *Engine) Pending() int { return e.ab.Pending() }

// SubmitConfig implements engine.ConfigSubmitter: the op rides the
// ordinary abcast path and takes effect at its decided boundary.
func (e *Engine) SubmitConfig(op member.Op) (types.MsgID, error) { return e.ab.SubmitConfig(op) }

// CurrentView implements engine.ConfigSubmitter.
func (e *Engine) CurrentView() member.View { return e.ab.CurrentView() }

// Views returns the full decided view sequence (checker support).
func (e *Engine) Views() []member.View { return e.ab.Views() }

var _ engine.ConfigSubmitter = (*Engine)(nil)
