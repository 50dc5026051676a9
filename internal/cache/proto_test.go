package cache

import "testing"

// An h2 session ticket must never produce an h3 resumption (and vice
// versa): tickets carry the wire protocol that minted them and
// redemption requires an exact match.
func TestTicketsDoNotCrossProtocols(t *testing.T) {
	sans := []string{"www.example.com", "*.example.com"}
	c := New(Options{})

	c.StoreTicketProto(sans, ProtoWireH2)
	if c.RedeemTicketProto("www.example.com", ProtoWireH3) {
		t.Fatal("h2 ticket redeemed under h3")
	}
	if c.RedeemTicketProto("www.example.com", protoWireH1) {
		t.Fatal("h2 ticket redeemed under h1")
	}
	if !c.RedeemTicketProto("www.example.com", ProtoWireH2) {
		t.Fatal("h2 ticket refused under h2")
	}

	c2 := New(Options{})
	c2.StoreTicketProto(sans, ProtoWireH3)
	if c2.RedeemTicketProto("static.example.com", ProtoWireH2) {
		t.Fatal("h3 ticket redeemed under h2")
	}
	if !c2.RedeemTicketProto("static.example.com", ProtoWireH3) {
		t.Fatal("h3 ticket refused under h3")
	}
}

// Address-validation tokens carry the same exact-match protocol key,
// are not consumed by redemption, and die exactly at expiry.
func TestTokenProtocolKeyReuseAndExpiry(t *testing.T) {
	sans := []string{"cdn.example.net"}
	c := New(Options{})
	store := func(proto int) { c.tokens.s.store(sans, proto, c.clock.nowMs()) }
	redeem := func(proto int) bool { return c.tokens.s.redeem("cdn.example.net", proto, c.clock.nowMs()) }

	store(ProtoWireH3)
	if redeem(ProtoWireH2) {
		t.Fatal("h3 token redeemed under h2")
	}
	// Non-consuming: the same token serves repeated h3 connections.
	for i := 0; i < 3; i++ {
		if !redeem(ProtoWireH3) {
			t.Fatalf("redemption %d: live h3 token refused", i)
		}
	}
	// One millisecond before expiry the token is live; at expiry it is
	// dead (a token expiring exactly at nowMs does not redeem).
	c.Clock().AdvanceMs(defaultTokenLifetimeSeconds*1000 - 1)
	if !redeem(ProtoWireH3) {
		t.Fatal("token dead 1ms before expiry")
	}
	c.Clock().AdvanceMs(1)
	if redeem(ProtoWireH3) {
		t.Fatal("token redeemed at its exact expiry instant")
	}
}
