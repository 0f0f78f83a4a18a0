package dcnet

// The allocating forms of the pad operations: the reference the
// differential tests compare the engines' *Into and parallel paths
// against.

// ClientCiphertext returns ClientCiphertextInto's result in a fresh
// buffer.
func (p *Pad) ClientCiphertext(serverSeeds [][]byte, round uint64, msg []byte) []byte {
	ct := make([]byte, len(msg))
	p.ClientCiphertextInto(ct, serverSeeds, round, msg)
	return ct
}

// ServerPad returns ServerPadInto's result over a zeroed buffer of the
// given length.
func (p *Pad) ServerPad(clientSeeds [][]byte, round uint64, length int) []byte {
	pad := make([]byte, length)
	p.ServerPadInto(pad, clientSeeds, round)
	return pad
}
