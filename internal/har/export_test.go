package har

// Validate lets the external tests hold pages made outside this package
// to validate's invariants.
func (p *Page) Validate() error { return p.validate() }
