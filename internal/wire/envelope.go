package wire

// The object envelope multiplexes many independent replication instances
// over one transport connection: every protocol message is prefixed with
// the ID of the object (the store key) it belongs to, so a node can route
// inbound messages to the right per-key replica. The inner payload stays
// opaque to the envelope — the same framing serves every protocol in the
// repository.
//
// Layout: [objectID str][payload...] — the payload is the unprefixed tail
// of the frame, so unpacking returns a subslice of the input with no copy.
// TCP reads every delivery into a fresh frame, and Mesh and Fabric hand
// every receiver the sender's own buffer, which nobody writes once sent,
// so borrowing the tail is safe; callers treating payloads as immutable
// (as all decoders in this repository do) see no aliasing.

// PackEnvelope prefixes a protocol message with its object ID. It costs
// exactly one allocation — the returned frame.
func PackEnvelope(objectID string, payload []byte) []byte {
	w := MakeWriter(make([]byte, 0, len(objectID)+len(payload)+4))
	w.Str(objectID)
	w.Fixed(payload)
	return w.Bytes()
}

// UnpackEnvelope splits a frame produced by PackEnvelope into the object ID
// and the inner protocol message. The payload aliases frame's tail.
func UnpackEnvelope(frame []byte) (objectID string, payload []byte, err error) {
	r := NewReader(frame)
	objectID = r.Str()
	if err := r.Err(); err != nil {
		return "", nil, err
	}
	return objectID, r.Rest(), nil
}
