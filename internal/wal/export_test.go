package wal

// The protocol record codec, for package-external tests that check it
// record by record (a NodeLog only shows the folded State).
var (
	EncodePayload = encodePayload
	DecodePayload = decodePayload
)
