// Package nilsafefix exercises the nilsafe analyzer's interface-driven
// registry: types implementing provenance.Sink must nil-guard every
// exported pointer-receiver method.
package nilsafefix

import "vc2m/internal/provenance"

// GoodSink guards every exported pointer method.
type GoodSink struct {
	events []provenance.Decision
}

func (g *GoodSink) Record(d provenance.Decision) {
	if g == nil {
		return
	}
	g.events = append(g.events, d)
}

func (g *GoodSink) Len() int {
	if g == nil {
		return 0
	}
	return len(g.events)
}

// Enabled guards by returning the nil comparison itself.
func (g *GoodSink) Enabled() bool { return g != nil }

// Clear has an empty body, which is trivially nil-safe.
func (g *GoodSink) Clear() {}

func (g *GoodSink) grow() { // unexported methods are not part of the contract
	g.events = append(g.events, provenance.Decision{})
}

// BadSink implements provenance.Sink but skips the guards.
type BadSink struct {
	n int
}

func (b *BadSink) Record(d provenance.Decision) { // want `\(\*BadSink\)\.Record must begin with a nil-receiver guard`
	b.n++
}

func (b *BadSink) Count() int { // want `\(\*BadSink\)\.Count must begin with a nil-receiver guard`
	return b.n
}

// AnonSink's receiver cannot be guarded because it is unnamed.
type AnonSink struct {
	n int
}

func (*AnonSink) Record(d provenance.Decision) { // want `\(\*AnonSink\)\.Record has an unnamed receiver`
	_ = d
}

// NotASink has unguarded pointer methods but implements no hook
// interface, so it is out of scope.
type NotASink struct {
	n int
}

func (s *NotASink) Bump() {
	s.n++
}

// ValueSink implements provenance.Sink with a value receiver; value receivers
// cannot be nil and are exempt.
type ValueSink struct{}

func (ValueSink) Record(d provenance.Decision) {
	_ = d
}

// provSink mirrors the allocation server's unexported stageSink:
// unexported types implementing provenance.Sink are hooks too, so the
// server's stage-event path keeps its nil-receiver contract.
type provSink struct {
	n int
}

func (p *provSink) Record(d provenance.Decision) { // want `\(\*provSink\)\.Record must begin with a nil-receiver guard`
	p.n++
	_ = d
}

// guardedProvSink is the compliant version of the same hook.
type guardedProvSink struct {
	n int
}

func (p *guardedProvSink) Record(d provenance.Decision) {
	if p == nil {
		return
	}
	p.n++
	_ = d
}
